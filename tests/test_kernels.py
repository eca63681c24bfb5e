"""Cross-backend tests for the pluggable evidence kernels.

The vectorized (NumPy) kernel and the pure-Python kernel must be
*indistinguishable from the outside*: byte-identical canonical state
under PR 2's serialization, identical deterministic work counters, and
identical behaviour on every maintenance path (static build, inserts in
both collection strategies, both delete strategies).  These tests reuse
the differential suite's static oracle so the kernels are checked
against ground truth, not merely against each other.

NumPy-dependent tests skip cleanly when NumPy is absent — the registry
is then exercised through its fallback arm instead.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.discoverer import DCDiscoverer
from repro.core.state_io import state_to_bytes
from repro.evidence.indexes import ColumnIndexes
from repro.evidence.kernels import (
    BACKENDS,
    DEFAULT_BACKEND,
    make_kernel,
    validate_backend,
    vectorized,
)
from repro.evidence.kernels.base import CounterSink, ReconcileTask
from repro.evidence.kernels.pure import PythonKernel
from repro.predicates.space import build_predicate_space
from repro.relational.loader import relation_from_rows
from repro.workloads.datasets import DATASETS
from repro.workloads.updates import pick_delete_rids, split_for_insert
from tests.test_differential import assert_matches_oracle

needs_numpy = pytest.mark.skipif(
    not vectorized.numpy_available(), reason="NumPy is not installed"
)

NAN = float("nan")

#: Mixed-type rows covering the kernel's encoding corners: INTEGER,
#: FLOAT (with NaN), and STRING columns, duplicate values (equality
#: clues), and int-valued floats (cross-type equality).
MIXED_HEADER = ["Id", "Score", "Grade", "Name"]
MIXED_ROWS = [
    (1, 1.0, 50, "Ana"),
    (2, NAN, 40, "Sam"),
    (3, 2.5, 50, "Ana"),
    (4, NAN, 35, "Kai"),
    (5, 2.0, 40, "Lou"),
    (6, 1.0, 61, "Sam"),
    (7, 4.0, 35, "Ana"),
    (8, 2.5, 50, "Ema"),
]
MIXED_DELTA = [
    (9, 3.0, 50, "Ana"),
    (2, NAN, 44, "Ema"),
    (10, 1.0, 61, "Noa"),
    (5, 2.0, 35, "Sam"),
]


def _fitted(backend, rows=None, **config):
    relation = relation_from_rows(MIXED_HEADER, list(rows or MIXED_ROWS))
    discoverer = DCDiscoverer(relation, backend=backend, **config)
    discoverer.fit()
    return discoverer


class TestRegistry:
    def test_validate_backend_accepts_known_names(self):
        for name in BACKENDS:
            assert validate_backend(name) == name
        assert validate_backend(None) == DEFAULT_BACKEND

    def test_validate_backend_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown evidence backend"):
            validate_backend("cuda")

    def test_discoverer_rejects_unknown_backend(self):
        relation = relation_from_rows(MIXED_HEADER, MIXED_ROWS)
        with pytest.raises(ValueError, match="unknown evidence backend"):
            DCDiscoverer(relation, backend="fortran")

    def test_explicit_numpy_without_numpy_raises(self, monkeypatch):
        monkeypatch.setattr(vectorized, "_np", None)
        relation = relation_from_rows(MIXED_HEADER, MIXED_ROWS)
        space = build_predicate_space(relation)
        indexes = ColumnIndexes(relation)
        with pytest.raises(RuntimeError, match="NumPy is not installed"):
            make_kernel("numpy", relation, space, indexes)
        # `auto` degrades silently instead.
        kernel = make_kernel("auto", relation, space, indexes)
        assert isinstance(kernel, PythonKernel)

    @needs_numpy
    def test_bigint_data_falls_back_to_python(self):
        rows = [(2**60 + i, 1.0, i, "x") for i in range(4)]
        relation = relation_from_rows(MIXED_HEADER, rows)
        discoverer = DCDiscoverer(relation, backend="numpy")
        result = discoverer.fit()
        counters = result.report.metrics["counters"]
        # The registry degraded to the python kernel and said so.
        assert counters["kernel.fallbacks"] >= 1
        assert counters["kernel.batches.python"] >= 1
        assert "kernel.batches.numpy" not in counters
        # ... and the degraded run is still correct.
        assert_matches_oracle(discoverer)

    @needs_numpy
    def test_backend_identity_probe_counters(self):
        result = _fitted("numpy").insert(list(MIXED_DELTA))
        counters = result.report.metrics["counters"]
        assert counters["kernel.batches.numpy"] == counters["kernel.batches"]


@needs_numpy
class TestByteIdenticalState:
    """`state_to_bytes` equality is the strongest cross-backend check:
    it covers the evidence multiset, the DC antichain, and the per-tuple
    evidence index in one comparison."""

    def test_static_build(self):
        assert state_to_bytes(
            _fitted("python", delete_strategy="index")
        ) == state_to_bytes(_fitted("numpy", delete_strategy="index"))

    @pytest.mark.parametrize("infer_within_delta", [True, False])
    def test_insert_both_collection_strategies(self, infer_within_delta):
        states = {}
        for backend in ("python", "numpy"):
            discoverer = _fitted(
                backend,
                infer_within_delta=infer_within_delta,
                delete_strategy="index",
            )
            discoverer.insert(list(MIXED_DELTA))
            states[backend] = state_to_bytes(discoverer)
        assert states["python"] == states["numpy"]

    @pytest.mark.parametrize("delete_strategy", ["index", "recompute"])
    def test_delete_both_strategies(self, delete_strategy):
        states = {}
        for backend in ("python", "numpy"):
            discoverer = _fitted(backend, delete_strategy=delete_strategy)
            discoverer.delete(list(discoverer.relation.rids())[1::3])
            states[backend] = state_to_bytes(discoverer)
        assert states["python"] == states["numpy"]

    def test_empty_delta_operations(self):
        states = {}
        for backend in ("python", "numpy"):
            discoverer = _fitted(backend)
            discoverer.insert([])
            discoverer.delete([])
            states[backend] = state_to_bytes(discoverer)
        assert states["python"] == states["numpy"]

    def test_mixed_update_sequence_and_counters(self):
        """Interleaved inserts and deletes; the deterministic evidence
        work counters must agree batch for batch, not just the final
        state."""
        states = {}
        counter_logs = {}
        for backend in ("python", "numpy"):
            discoverer = _fitted(backend, delete_strategy="index")
            log = []
            for result in (
                discoverer.insert(list(MIXED_DELTA)),
                discoverer.delete(list(discoverer.relation.rids())[::4]),
                discoverer.insert([(11, NAN, 35, "Ana")]),
            ):
                log.append(
                    {
                        name: value
                        for name, value in result.report.metrics[
                            "counters"
                        ].items()
                        if name.startswith("evidence.")
                    }
                )
            states[backend] = state_to_bytes(discoverer)
            counter_logs[backend] = log
        assert states["python"] == states["numpy"]
        assert counter_logs["python"] == counter_logs["numpy"]

    def test_differential_workload_matches_oracle(self):
        """The numpy backend run through the differential suite's
        randomized workload must land on the static oracle's answer."""
        rows = DATASETS["Tax"].rows(60, seed=3)
        workload = split_for_insert(rows, ratio=0.25, retain=0.7, seed=3)
        relation = relation_from_rows(
            DATASETS["Tax"].header, list(workload.static_rows)
        )
        discoverer = DCDiscoverer(relation, backend="numpy")
        discoverer.fit()
        discoverer.insert(list(workload.delta_rows))
        discoverer.delete(pick_delete_rids(discoverer.relation, 0.2, seed=3))
        assert_matches_oracle(discoverer)


@needs_numpy
class TestCli:
    def test_backend_flag_produces_identical_state(self, tmp_path):
        import csv

        path = tmp_path / "mixed.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(MIXED_HEADER)
            writer.writerows(
                [row for row in MIXED_ROWS if row[1] == row[1]]  # no NaN in CSV
            )
        states = {}
        for backend in ("python", "numpy"):
            state = tmp_path / f"{backend}.json"
            assert (
                main(
                    [
                        "discover",
                        str(path),
                        "--backend",
                        backend,
                        "--state",
                        str(state),
                    ]
                )
                == 0
            )
            states[backend] = state.read_bytes()
        assert states["python"] == states["numpy"]

    def test_backend_flag_rejects_unknown(self, capsys):
        with pytest.raises(SystemExit):
            main(["discover", "ignored.csv", "--backend", "cuda"])


# -- Hypothesis: clue-bitset folding -----------------------------------------

_value = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False).map(
        lambda x: round(x, 1)
    ),
    st.just(NAN),
)
_rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        _value,
        st.sampled_from(["a", "b", "c"]),
    ),
    min_size=3,
    max_size=12,
)


@needs_numpy
@settings(max_examples=30, deadline=None)
@given(rows=_rows_strategy, data=st.data())
def test_clue_bitset_folding_property(rows, data):
    """For arbitrary task subsets over arbitrary mixed-type tables, the
    vectorized kernel's clue-bitset folding must produce exactly the
    pure-Python kernel's evidence partition — same masks, same
    multiplicities, same per-pipeline statistics."""
    relation = relation_from_rows(["I", "F", "S"], rows)
    space = build_predicate_space(relation)
    indexes = ColumnIndexes(relation)
    alive = sorted(relation.rids())
    tasks = []
    for rid in alive:
        partners = 0
        for other in alive:
            if other != rid and data.draw(st.booleans()):
                partners |= 1 << other
        tasks.append(ReconcileTask(rid, partners))

    folds = {}
    stats = {}
    for backend in ("python", "numpy"):
        kernel = make_kernel(backend, relation, space, indexes)
        sink = CounterSink({})
        result = kernel.reconcile(tasks, sink)
        folds[backend] = sink.counts
        stats[backend] = (result.pipelines, result.pairs, result.contexts_out)
    assert folds["python"] == folds["numpy"]
    assert stats["python"] == stats["numpy"]
