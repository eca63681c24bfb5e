"""Denial constraints as first-class objects: model, violations, ranking,
and the approximate-DC extension."""

from repro.dcs.denial_constraint import DenialConstraint
from repro.dcs.violations import (
    find_violations,
    iter_violating_pairs,
    partners_satisfying,
    violating_partners,
    violating_partners_for_row,
)
from repro.dcs.ranking import DCScore, coverage, rank_dcs, score_dc, succinctness
from repro.dcs.approximate import approximate_dcs, violation_count
from repro.dcs.canonical import CanonicalCover, canonicalize_mask, canonicalize_masks
from repro.dcs.dynamic_approximate import (
    ApproximateDCMonitor,
    MonitorReport,
    RefreshReport,
)
from repro.dcs.implication import (
    dc_implies,
    predicates_closure,
    satisfaction_implies,
    semantic_minimize,
)
from repro.dcs.watcher import ViolationWatcher
from repro.dcs.sql import (
    create_table_statement,
    deploy_checks,
    insert_rows,
    violation_count_query,
    violations_query,
)

__all__ = [
    "DenialConstraint",
    "find_violations",
    "iter_violating_pairs",
    "partners_satisfying",
    "violating_partners",
    "violating_partners_for_row",
    "DCScore",
    "coverage",
    "rank_dcs",
    "score_dc",
    "succinctness",
    "approximate_dcs",
    "violation_count",
    "CanonicalCover",
    "canonicalize_mask",
    "canonicalize_masks",
    "ApproximateDCMonitor",
    "MonitorReport",
    "RefreshReport",
    "dc_implies",
    "predicates_closure",
    "satisfaction_implies",
    "semantic_minimize",
    "ViolationWatcher",
    "create_table_statement",
    "deploy_checks",
    "insert_rows",
    "violation_count_query",
    "violations_query",
]
