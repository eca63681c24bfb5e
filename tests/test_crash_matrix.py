"""The crash matrix: kill the pipeline at every fault point, recover,
and demand byte-identity with an uninterrupted run.

For each registered :data:`~repro.durability.faults.FAULT_POINTS` entry ×
each operation kind {insert batch, delete batch, checkpoint} × each delete
strategy {recompute (the default), index}, the harness
runs a scripted workload inside a :class:`DurableSession`, arms the fault
point before the target operation, and — if the simulated crash fires —
collapses the session directory to its pessimistic post-power-loss image
(:mod:`repro.durability.crashsim`).  Recovery must then land on exactly
the serialized state (`state_to_bytes`) of an uninterrupted plain-
discoverer run over the *durable batch prefix*:

- a crash before the WAL record's fsync (``wal.append``,
  ``wal.pre_fsync``) loses the in-flight batch — the oracle excludes it;
- a crash anywhere after the fsync (including every checkpoint instant)
  keeps it — the oracle includes it.

Fault points that cannot fire during an operation (e.g. ``state_save.*``
during session updates) leave the run uninterrupted; recovery must still
be byte-identical to it, so the matrix asserts them too instead of
skipping.

The Hypothesis property test generalizes the same contract to random
batch sequences crashed at a random point, and additionally checks the
recovered engine against the *static re-discovery* oracle of
tests/test_differential.py (evidence multiset, Σ, and deletes that stay
exact — through the tuple index under the index strategy).  The session
and its oracle always run the same delete strategy: the index strategy
persists the per-tuple index, so its checkpoint, compaction and recovery
go through the matrix too.
"""

import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DCDiscoverer, DurableSession, relation_from_rows
from repro.core.state_io import state_to_bytes
from repro.durability import FAULT_POINTS, SimulatedCrash, get_injector
from tests.conftest import random_rows
from tests.test_differential import assert_matches_oracle

HEADER = ["A", "B", "C"]
BASE_SEED = 3
BASE_ROWS = 12

#: Fault points that fire before the WAL record is durable: the
#: in-flight batch never happened as far as recovery is concerned.
BATCH_LOST = {"wal.append", "wal.pre_fsync"}

OPERATIONS = ("insert", "delete", "checkpoint")
DELETE_STRATEGIES = ("recompute", "index")

#: The matrix's (operation, delete strategy) axis.  The default strategy
#: keeps the bare operation as its id; the index strategy's ids end in
#: ``-index``.
MATRIX_CASES = [
    pytest.param(
        operation,
        strategy,
        id=operation if strategy == "recompute" else f"{operation}-{strategy}",
    )
    for strategy in DELETE_STRATEGIES
    for operation in OPERATIONS
]


def base_rows():
    return random_rows(random.Random(BASE_SEED), BASE_ROWS)


def scripted_batches():
    """(kind, payload) setup batches shared by session and oracle runs."""
    rng = random.Random(17)
    return [
        ("insert", random_rows(rng, 3)),
        ("delete", [0, 3]),
        ("insert", random_rows(rng, 2)),
    ]


def target_batch(kind):
    rng = random.Random(23)
    if kind == "insert":
        return ("insert", random_rows(rng, 2))
    return ("delete", [1, 5])


def apply_batch(target, batch):
    kind, payload = batch
    if kind == "insert":
        target.insert(payload)
    else:
        target.delete(payload)


def oracle_bytes(batches, **config):
    """Serialized state of an uninterrupted plain run over ``batches``
    of a discoverer built with ``config``."""
    discoverer = DCDiscoverer(relation_from_rows(HEADER, base_rows()), **config)
    discoverer.fit()
    for batch in batches:
        apply_batch(discoverer, batch)
    return state_to_bytes(discoverer)


@pytest.mark.parametrize("operation,delete_strategy", MATRIX_CASES)
@pytest.mark.parametrize("point", sorted(FAULT_POINTS))
def test_crash_matrix(
    tmp_path, fault_injector, point, operation, delete_strategy
):
    session_dir = tmp_path / "session"
    setup = scripted_batches()
    discoverer = DCDiscoverer(
        relation_from_rows(HEADER, base_rows()), delete_strategy=delete_strategy
    )
    # checkpoint_every=1 makes every update batch also exercise the
    # checkpoint path, so checkpoint.* points are reachable from inserts
    # and deletes; the explicit-checkpoint scenario uses a cadence the
    # workload never hits.
    cadence = 1 if operation != "checkpoint" else 100
    session = DurableSession.create(
        discoverer, session_dir, checkpoint_every=cadence, retain=2
    )
    for batch in setup:
        apply_batch(session, batch)

    durable = list(setup)
    crashed = False
    fault_injector.arm(point)
    try:
        if operation == "checkpoint":
            session.checkpoint()
        else:
            batch = target_batch(operation)
            apply_batch(session, batch)
            durable.append(batch)
    except SimulatedCrash as crash:
        crashed = True
        assert crash.point == point
        session.simulate_power_loss()
        if operation != "checkpoint" and point not in BATCH_LOST:
            # The crash hit after the record's fsync: the batch is
            # durable even though the run never completed it.
            durable.append(batch)
    else:
        session.close()
    fault_injector.reset()

    # wal.* points can only fire while a batch is being logged; during an
    # explicit checkpoint (and for the state_save.* points, always) the
    # run completes uninterrupted — and must still recover identically.
    # executor.* points fire only inside parallel-evidence workers (this
    # workload runs serial; test_parallel.py covers the firing path).
    if operation != "checkpoint" and not point.startswith(
        ("state_save", "executor.")
    ):
        assert crashed, f"{point} never fired during {operation}"

    recovered = DurableSession.recover(session_dir)
    try:
        assert state_to_bytes(recovered.discoverer) == oracle_bytes(
            durable, delete_strategy=delete_strategy
        )
    finally:
        recovered.close()


def test_matrix_covers_every_registered_point():
    """A newly planted fault point must automatically join the matrix."""
    covered = set(sorted(FAULT_POINTS))
    assert covered == FAULT_POINTS


@pytest.mark.parametrize("delete_strategy", DELETE_STRATEGIES)
def test_double_crash_recovery_is_idempotent(
    tmp_path, fault_injector, delete_strategy
):
    """Crashing, recovering, crashing again: recovery is repeatable and
    each replay starts from the newest durable image."""
    session_dir = tmp_path / "session"
    rng = random.Random(31)
    discoverer = DCDiscoverer(
        relation_from_rows(HEADER, base_rows()), delete_strategy=delete_strategy
    )
    session = DurableSession.create(discoverer, session_dir, checkpoint_every=100)
    session.insert(random_rows(rng, 2))
    with fault_injector.armed("wal.pre_fsync"):
        with pytest.raises(SimulatedCrash):
            session.insert(random_rows(rng, 2))
    session.simulate_power_loss()

    recovered = DurableSession.recover(session_dir)
    batch = random_rows(rng, 2)
    recovered.insert(batch)  # durably logged; cadence never checkpoints
    with fault_injector.armed("checkpoint.pre_rename"):
        with pytest.raises(SimulatedCrash):
            recovered.checkpoint()
    recovered.simulate_power_loss()

    final = DurableSession.recover(session_dir)
    expected = DCDiscoverer(
        relation_from_rows(HEADER, base_rows()), delete_strategy=delete_strategy
    )
    expected.fit()
    expected.insert(random_rows(random.Random(31), 2))
    expected.insert(batch)
    assert state_to_bytes(final.discoverer) == state_to_bytes(expected)
    final.close()


# -- property test: random workloads, random crash ---------------------------


def _materialize_delete(relation, count):
    """Deterministic rid choice: the ``count`` lowest alive rids, keeping
    at least 4 rows so evidence structure survives (may be empty — empty
    batches are logged and replayed like any other)."""
    alive = sorted(relation.rids())
    count = min(count, max(0, len(alive) - 4))
    return alive[:count]


_row = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.sampled_from("abc"),
    st.integers(min_value=0, max_value=2),
)
_op = st.one_of(
    st.tuples(st.just("insert"), st.lists(_row, min_size=1, max_size=3)),
    st.tuples(st.just("delete"), st.integers(min_value=1, max_value=3)),
)


@pytest.mark.parametrize("delete_strategy", DELETE_STRATEGIES)
@settings(max_examples=20, deadline=None)
@given(
    ops=st.lists(_op, min_size=1, max_size=5),
    crash_index=st.integers(min_value=0, max_value=4),
    point=st.sampled_from(sorted(FAULT_POINTS)),
)
def test_random_workload_crash_recovers_to_oracle(
    delete_strategy, ops, crash_index, point
):
    """Recovered evidence multiset, Σ, and tuple index equal the
    crash-free oracle over the durable batch prefix, wherever the crash
    lands."""
    crash_index = min(crash_index, len(ops) - 1)
    injector = get_injector()
    injector.reset()
    with tempfile.TemporaryDirectory() as tmp:
        session_dir = os.path.join(tmp, "session")
        discoverer = DCDiscoverer(
            relation_from_rows(HEADER, base_rows()),
            delete_strategy=delete_strategy,
        )
        session = DurableSession.create(
            discoverer, session_dir, checkpoint_every=2
        )
        durable = []
        crashed_at = None
        lost_in_flight = False
        try:
            for index, (kind, payload) in enumerate(ops):
                if index == crash_index:
                    injector.arm(point)
                if kind == "insert":
                    session.insert(payload)
                else:
                    session.delete(
                        _materialize_delete(session.discoverer.relation, payload)
                    )
                durable.append(index)
        except SimulatedCrash:
            crashed_at = index
            lost_in_flight = point in BATCH_LOST
            session.simulate_power_loss()
        else:
            session.close()
        finally:
            injector.reset()
        if crashed_at is not None and not lost_in_flight:
            durable.append(crashed_at)

        recovered = DurableSession.recover(session_dir)
        try:
            # Oracle 1: uninterrupted plain run over the durable prefix,
            # byte for byte.
            oracle = DCDiscoverer(
                relation_from_rows(HEADER, base_rows()),
                delete_strategy=delete_strategy,
            )
            oracle.fit()
            for index in durable:
                kind, payload = ops[index]
                if kind == "insert":
                    oracle.insert(payload)
                else:
                    oracle.delete(
                        _materialize_delete(oracle.relation, payload)
                    )
            assert state_to_bytes(recovered.discoverer) == state_to_bytes(oracle)
            # Oracle 2: static re-discovery from the final table
            # (evidence multiset + Σ), reusing the differential helpers.
            assert_matches_oracle(recovered.discoverer)
            # Deletes on the recovered engine must stay exact (through
            # the recovered tuple index under the index strategy).
            survivors = _materialize_delete(recovered.discoverer.relation, 2)
            if survivors:
                recovered.discoverer.delete(survivors)
                oracle.delete(survivors)
                assert (
                    recovered.discoverer.evidence_set == oracle.evidence_set
                )
        finally:
            recovered.close()
