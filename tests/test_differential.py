"""Differential testing: incremental maintenance vs. a static oracle.

The safety net for every evidence-path rework: for seeded randomized
workloads from :mod:`repro.workloads.updates`, incremental insert/delete
discovery must land on exactly the evidence set and minimal DC cover that
a *static re-discovery on the final table* produces.  The static run is
the oracle — if the two ever diverge, the incremental engine is silently
drifting (the failure mode dynamic engines are most prone to).

The oracle reuses the incremental discoverer's predicate space: the space
is frozen at ``fit()`` time from the initial data by design, so a fresh
``fit()`` on the final table could legitimately choose different
cross-column predicates.  Evidence multisets are invariant under rid
relabeling, which is what makes the comparison well-defined even though
the oracle relation is densely re-numbered.
"""

import pytest

from repro.core.backends import make_backend
from repro.core.discoverer import DCDiscoverer
from repro.evidence.builder import build_evidence_state
from repro.relational.loader import relation_from_rows
from repro.workloads.datasets import DATASETS
from repro.workloads.updates import pick_delete_rids, split_for_insert

DATASET = "Tax"
TOTAL_ROWS = 90

INSERT_SEEDS = (1, 2, 3)
DELETE_SEEDS = (11, 12, 13)


def _rows(seed: int = 0):
    return DATASETS[DATASET].rows(TOTAL_ROWS, seed=seed)


def static_oracle(discoverer: DCDiscoverer):
    """Static re-discovery on the discoverer's current table, using its
    frozen predicate space.  Returns ``(evidence counts, Σ mask set)``.

    Works for any discoverer (the crash-matrix suite reuses it): the
    oracle relation is rebuilt from the live rows under the discoverer's
    own header.
    """
    fresh = relation_from_rows(
        list(discoverer.relation.schema.names), list(discoverer.relation.rows())
    )
    state = build_evidence_state(fresh, discoverer.space)
    backend = make_backend("dynei", discoverer.space)
    backend.bootstrap(list(state.evidence))
    sigma = {mask for mask in backend.masks if mask}
    return state.evidence.counts, sigma


def assert_matches_oracle(discoverer: DCDiscoverer):
    oracle_evidence, oracle_sigma = static_oracle(discoverer)
    assert discoverer.evidence_set.counts == oracle_evidence
    assert set(discoverer.dc_masks) == oracle_sigma


@pytest.mark.parametrize("seed", INSERT_SEEDS)
def test_insert_matches_static_oracle(seed):
    workload = split_for_insert(_rows(), ratio=0.25, retain=0.7, seed=seed)
    relation = relation_from_rows(
        DATASETS[DATASET].header, list(workload.static_rows)
    )
    discoverer = DCDiscoverer(relation)
    discoverer.fit()
    discoverer.insert(list(workload.delta_rows))
    assert_matches_oracle(discoverer)


@pytest.mark.parametrize("seed", DELETE_SEEDS)
@pytest.mark.parametrize("delete_strategy", ["index", "recompute"])
def test_delete_matches_static_oracle(seed, delete_strategy):
    relation = relation_from_rows(DATASETS[DATASET].header, _rows())
    discoverer = DCDiscoverer(relation, delete_strategy=delete_strategy)
    discoverer.fit()
    discoverer.delete(pick_delete_rids(discoverer.relation, 0.2, seed=seed))
    assert_matches_oracle(discoverer)


@pytest.mark.parametrize(
    "seed,delete_strategy",
    [
        pytest.param(seed, strategy, id=f"{seed}{suffix}")
        for strategy, suffix in (("recompute", ""), ("index", "-index"))
        for seed in (21, 22, 23)
    ],
)
def test_mixed_update_sequence_matches_static_oracle(seed, delete_strategy):
    """Several rounds of interleaved inserts and deletes — under the index
    strategy, staleness in the per-tuple index accumulates across batches,
    which single-batch tests never exercise."""
    workload = split_for_insert(_rows(), ratio=0.3, retain=0.6, seed=seed)
    relation = relation_from_rows(
        DATASETS[DATASET].header, list(workload.static_rows)
    )
    discoverer = DCDiscoverer(relation, delete_strategy=delete_strategy)
    discoverer.fit()
    delta = list(workload.delta_rows)
    half = len(delta) // 2
    discoverer.insert(delta[:half])
    discoverer.delete(pick_delete_rids(discoverer.relation, 0.15, seed=seed))
    discoverer.insert(delta[half:])
    discoverer.delete(
        pick_delete_rids(discoverer.relation, 0.1, seed=seed + 100)
    )
    assert_matches_oracle(discoverer)


def test_insert_base_strategy_matches_static_oracle():
    """The Figure 9 'Base' collection strategy must agree with the oracle
    too, not just the default 'Opt' path."""
    workload = split_for_insert(_rows(), ratio=0.25, retain=0.7, seed=5)
    relation = relation_from_rows(
        DATASETS[DATASET].header, list(workload.static_rows)
    )
    discoverer = DCDiscoverer(relation, infer_within_delta=False)
    discoverer.fit()
    discoverer.insert(list(workload.delta_rows))
    assert_matches_oracle(discoverer)


def test_parallel_incremental_matches_static_oracle():
    """The differential net also covers the sharded execution path."""
    workload = split_for_insert(_rows(), ratio=0.25, retain=0.7, seed=7)
    relation = relation_from_rows(
        DATASETS[DATASET].header, list(workload.static_rows)
    )
    discoverer = DCDiscoverer(relation, workers=2)
    discoverer.fit()
    discoverer.insert(list(workload.delta_rows))
    discoverer.delete(pick_delete_rids(discoverer.relation, 0.2, seed=7))
    assert_matches_oracle(discoverer)
