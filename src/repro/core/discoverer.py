"""The 3DC discoverer — stateful dynamic DC discovery (Figure 2).

:class:`DCDiscoverer` owns the relation, the predicate space, the column
indexes, the evidence set (with multiplicities), the optional per-tuple
evidence index, and the current minimal-DC antichain.  ``fit()`` performs
the static bootstrap (any static algorithm could seed 3DC; we use the
evidence-context pipeline + evidence inversion, the ECP analog);
``insert()`` / ``delete()`` / ``update()`` maintain everything
incrementally.

The predicate space is frozen at ``fit()`` time from the initial data —
matching the paper, where the space (and hence the DC search space) is a
property of the schema and the initial value distributions.

Every call returns a result whose :attr:`~repro.core.results.UpdateResult.report`
carries the nested span tree and per-call metric deltas of the operation
(see :mod:`repro.observability`); the flat ``timings`` dicts are a
derived view of the report's first span level.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, List, Optional, Sequence, Tuple

from repro.core.backends import make_backend
from repro.core.results import DiscoveryResult, UpdateResult
from repro.dcs.denial_constraint import DenialConstraint
from repro.dcs.ranking import DCScore, rank_dcs
from repro.dcs.approximate import approximate_dcs
from repro.evidence.builder import build_evidence_state
from repro.evidence.deletes import (
    apply_delete_evidence,
    delete_evidence_by_recompute,
    delete_evidence_with_index,
)
from repro.evidence.evidence_set import EvidenceSet
from repro.evidence.incremental import (
    apply_insert_evidence,
    incremental_evidence_for_insert,
)
from repro.observability import Instrumentation, annotate, get_logger, span
from repro.predicates.space import (
    DEFAULT_CROSS_COLUMN_RATIO,
    PredicateSpace,
    build_predicate_space,
)
from repro.relational.relation import Relation

logger = get_logger(__name__)


class DCDiscoverer:
    """Dynamic denial-constraint discovery over one relation.

    :param relation: the initial relation instance (may be empty).
    :param cross_column_ratio: shared-value threshold for cross-column
        predicates (Section III-A4; default 30 %).
    :param allow_cross_columns: disable to restrict the space to
        single-column predicates.
    :param column_names: restrict the predicate space to these columns
        (used by the column-scaling experiments).
    :param maintain_tuple_index: keep the per-tuple evidence index that
        accelerates deletes (Section V-C); slight insert-time overhead.
    :param delete_strategy: ``"index"`` (needs the tuple index) or
        ``"recompute"`` (Figure 10 compares the two).
    :param infer_within_delta: apply evidence inference among the
        incremental tuples themselves (the Figure 9 "Opt" strategy).
    :param enumeration_backend: ``"dynei"`` (3DC) or ``"dynhs"`` ([19]).
    :param workers: worker-pool size for evidence construction: 1 (the
        default) runs fully serial, ``n > 1`` stripes the static scan,
        insert deltas, and delete batches over the parent and ``n - 1``
        forked processes, and 0 means one worker per CPU.  Results are
        byte-for-byte identical for any worker count (the stripe merge is
        deterministic); platforms without the ``fork`` start method fall
        back to serial.
    :param backend: evidence-kernel backend — ``"auto"`` (the default;
        NumPy-vectorized when available, pure Python otherwise),
        ``"python"``, or ``"numpy"``.  Results are byte-for-byte
        identical for any backend; like ``workers``, the choice is an
        execution setting of this process and is not persisted with the
        state.
    :param instrumentation: the metrics registry this discoverer reports
        through, installed as the pipeline probe for each call; defaults
        to a fresh :class:`~repro.observability.Instrumentation`.  Spans
        need no instrumentation: each call's phases nest under its root
        :class:`~repro.observability.Span`, which becomes the returned
        result's ``report.root``.
    :param mode: ``"discover"`` (the default: maintain evidence and
        rediscover Σ on every update) or ``"verify"``: track a *fixed*
        Σ of ``constraints`` without any evidence maintenance — updates
        only maintain the column indexes and the violating pairs of the
        tracked DCs (via the verification kernel), which is far cheaper
        when the constraint set is already known.
    :param constraints: the DCs to track in ``mode="verify"`` — DC
        strings (``"!(t.A = t'.A ∧ …)"``), predicate masks, or
        :class:`~repro.dcs.DenialConstraint` objects; resolved against
        the predicate space at ``fit()``.
    """

    def __init__(
        self,
        relation: Relation,
        cross_column_ratio: float = DEFAULT_CROSS_COLUMN_RATIO,
        allow_cross_columns: bool = True,
        column_names: Optional[Sequence[str]] = None,
        maintain_tuple_index: bool = True,
        delete_strategy: str = "index",
        infer_within_delta: bool = True,
        enumeration_backend: str = "dynei",
        workers: int = 1,
        backend: str = "auto",
        instrumentation: Optional[Instrumentation] = None,
        mode: str = "discover",
        constraints: Optional[Sequence] = None,
    ):
        from repro.evidence.kernels import validate_backend

        if delete_strategy not in ("index", "recompute"):
            raise ValueError(
                f"delete_strategy must be 'index' or 'recompute', "
                f"got {delete_strategy!r}"
            )
        if delete_strategy == "index" and not maintain_tuple_index:
            raise ValueError(
                "delete_strategy='index' requires maintain_tuple_index=True"
            )
        if mode not in ("discover", "verify"):
            raise ValueError(
                f"mode must be 'discover' or 'verify', got {mode!r}"
            )
        if mode == "discover" and constraints is not None:
            raise ValueError("constraints are only meaningful with mode='verify'")
        self.relation = relation
        self.cross_column_ratio = cross_column_ratio
        self.allow_cross_columns = allow_cross_columns
        self.column_names = tuple(column_names) if column_names else None
        self.maintain_tuple_index = maintain_tuple_index
        self.delete_strategy = delete_strategy
        self.infer_within_delta = infer_within_delta
        self.mode = mode
        # A verify-mode discoverer always runs the frozen-Σ backend, so
        # the persisted config round-trips through state_from_dict.
        self.enumeration_backend = "fixed" if mode == "verify" else enumeration_backend
        self.constraints = list(constraints) if constraints is not None else None
        self.workers = workers
        self.backend = validate_backend(backend)
        self.instrumentation = instrumentation or Instrumentation()
        self.space: Optional[PredicateSpace] = None
        self._state = None
        self._backend = None
        self._fitted = False
        self._monitors = []
        self._watchers = []
        self._verify_watcher = None

    # -- bootstrap -----------------------------------------------------------

    def fit(self) -> DiscoveryResult:
        """Run the static discovery on the current relation state.

        In ``mode="verify"`` there is nothing to discover: ``fit()``
        freezes the predicate space, indexes the relation, resolves the
        configured ``constraints`` against the space, and seeds the
        violating-pair watcher from one verification-kernel enumeration
        (no evidence set is ever built).
        """
        if self.mode == "verify":
            return self._fit_verify()
        instrumentation = self.instrumentation
        before = instrumentation.begin_operation()
        with instrumentation.activate(), span("fit") as root:
            with span("space"):
                self.space = build_predicate_space(
                    self.relation,
                    cross_column_ratio=self.cross_column_ratio,
                    allow_cross_columns=self.allow_cross_columns,
                    column_names=self.column_names,
                )
            with span("evidence"):
                self._state = build_evidence_state(
                    self.relation,
                    self.space,
                    maintain_tuple_index=self.maintain_tuple_index,
                    workers=self.workers,
                    backend=self.backend,
                )
            with span("enumeration"):
                self._backend = make_backend(
                    self.enumeration_backend, self.space
                )
                self._backend.bootstrap(list(self._state.evidence))
        self._fitted = True
        self._record_state_gauges()
        report = instrumentation.finish_operation("fit", root, before)
        logger.debug(
            "fit: %d rows, %d predicates, %d evidences, %d DCs in %.3fs",
            len(self.relation), self.space.n_bits,
            len(self._state.evidence), self.n_dcs, root.duration,
        )
        return DiscoveryResult(
            n_rows=len(self.relation),
            n_predicates=self.space.n_bits,
            n_evidence=len(self._state.evidence),
            n_dcs=self.n_dcs,
            timings=report.phase_timings(),
            report=report,
        )

    def _resolve_constraint_masks(self) -> List[int]:
        """Constraint inputs (strings, masks, DC objects) → sorted masks."""
        from repro.predicates.parser import parse_dc

        masks = []
        for constraint in self.constraints:
            if isinstance(constraint, DenialConstraint):
                mask = constraint.mask
            elif isinstance(constraint, int):
                mask = constraint
            else:
                mask = parse_dc(constraint, self.space)
            if not mask:
                raise ValueError("cannot track an empty constraint")
            if mask & ~self.space.full_mask:
                raise ValueError(
                    f"constraint mask {mask:#x} has predicates outside the "
                    f"space; widen it (e.g. cross_column_ratio=0.0)"
                )
            masks.append(mask)
        return sorted(set(masks))

    def _seed_verify_watcher(self):
        """Build the verify-mode watcher, its pairs enumerated by the
        verification kernel (instead of the watcher's own per-row scan)."""
        from repro.dcs.watcher import ViolationWatcher
        from repro.verification.kernel import Verifier

        verifier = Verifier(self.relation, self._state.indexes, self.space)
        dcs = [
            DenialConstraint(mask, self.space)
            for mask in self._backend.masks
            if mask
        ]
        pairs_by_mask = {
            dc.mask: set(verifier.violating_pairs(dc)) for dc in dcs
        }
        watcher = ViolationWatcher.from_pairs(
            self.relation, self._state.indexes, dcs, pairs_by_mask
        )
        self._verify_watcher = watcher
        self._watchers.append(watcher)
        return watcher

    def _fit_verify(self) -> DiscoveryResult:
        from repro.evidence.builder import EvidenceEngineState
        from repro.evidence.indexes import ColumnIndexes

        if not self.constraints:
            raise ValueError(
                "mode='verify' requires constraints=[...] "
                "(DC strings, masks, or DenialConstraint objects)"
            )
        instrumentation = self.instrumentation
        before = instrumentation.begin_operation()
        with instrumentation.activate(), span("fit") as root:
            with span("space"):
                self.space = build_predicate_space(
                    self.relation,
                    cross_column_ratio=self.cross_column_ratio,
                    allow_cross_columns=self.allow_cross_columns,
                    column_names=self.column_names,
                )
            with span("evidence"):
                # No evidence set in verify mode — only the indexes.
                self._state = EvidenceEngineState(
                    space=self.space,
                    indexes=ColumnIndexes(self.relation),
                    evidence=EvidenceSet(),
                    tuple_index=None,
                )
            with span("enumeration"):
                self._backend = make_backend("fixed", self.space)
                self._backend.set_masks(self._resolve_constraint_masks())
                self._seed_verify_watcher()
        self._fitted = True
        self._record_state_gauges()
        report = instrumentation.finish_operation("fit", root, before)
        logger.debug(
            "fit(verify): %d rows, %d predicates, %d constraints, "
            "%d violating pairs in %.3fs",
            len(self.relation), self.space.n_bits, self.n_dcs,
            self._verify_watcher.total_violations(), root.duration,
        )
        return DiscoveryResult(
            n_rows=len(self.relation),
            n_predicates=self.space.n_bits,
            n_evidence=0,
            n_dcs=self.n_dcs,
            timings=report.phase_timings(),
            report=report,
        )

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("call fit() before incremental maintenance")

    # -- incremental maintenance -----------------------------------------------

    def insert(self, rows: Iterable[Sequence]) -> UpdateResult:
        """Insert a batch of rows and update evidence and DCs.

        An empty batch is a no-op on the engine state but still notifies
        attached monitors/watchers (with an empty delta), so downstream
        consumers observe every maintenance call symmetrically.
        """
        self._require_fitted()
        if self.mode == "verify":
            return self._insert_verify(rows)
        instrumentation = self.instrumentation
        before = instrumentation.begin_operation()
        previous_masks = set(self._backend.mask_set)

        with instrumentation.activate(), span("insert") as root:
            with span("evidence"):
                new_rids = self.relation.insert(rows)
                annotate("batch_rows", len(new_rids))
                if new_rids:
                    with span("index_update"):
                        self._state.indexes.add_rows(new_rids)
                    with span("delta"):
                        evidence_delta = incremental_evidence_for_insert(
                            self.relation,
                            self._state,
                            new_rids,
                            infer_within_delta=self.infer_within_delta,
                            workers=self.workers,
                            backend=self.backend,
                        )
                    with span("apply"):
                        new_masks = apply_insert_evidence(
                            self._state, evidence_delta
                        )
                else:
                    evidence_delta = EvidenceSet()
                    new_masks = []
                with span("notify"):
                    for monitor in self._monitors:
                        monitor.apply_insert_delta(
                            evidence_delta, len(self.relation)
                        )
                    for watcher in self._watchers:
                        watcher.on_insert(new_rids)
            with span("enumeration", {"einc_size": len(new_masks)}):
                self._backend.insert(new_masks)

        instrumentation.inc("discoverer.inserts")
        instrumentation.inc("discoverer.rows_inserted", len(new_rids))
        instrumentation.inc("enumeration.einc_size", len(new_masks))
        return self._update_result(
            "insert", new_rids, len(new_masks), previous_masks, root, before
        )

    def delete(self, rids: Iterable[int]) -> UpdateResult:
        """Delete a batch of rows (by rid) and update evidence and DCs.

        Like :meth:`insert`, an empty batch still notifies attached
        monitors/watchers with an empty delta.
        """
        self._require_fitted()
        if self.mode == "verify":
            return self._delete_verify(rids)
        rid_list = sorted(rids)
        # Validate before touching any state: evidence subtraction happens
        # before the relation delete, so a bad rid must not get that far.
        for rid in rid_list:
            if not self.relation.is_alive(rid):
                raise KeyError(f"rid {rid} is not an alive row")
        if len(set(rid_list)) != len(rid_list):
            raise ValueError("duplicate rids in delete batch")
        instrumentation = self.instrumentation
        before = instrumentation.begin_operation()
        previous_masks = set(self._backend.mask_set)

        with instrumentation.activate(), span("delete") as root:
            with span("evidence", {"batch_rows": len(rid_list)}):
                if rid_list:
                    with span("delta"):
                        if self.delete_strategy == "index":
                            evidence_delta = delete_evidence_with_index(
                                self.relation, self._state, rid_list,
                                workers=self.workers,
                                backend=self.backend,
                            )
                        else:
                            evidence_delta = delete_evidence_by_recompute(
                                self.relation, self._state, rid_list,
                                workers=self.workers,
                                backend=self.backend,
                            )
                    with span("apply"):
                        removed_masks = apply_delete_evidence(
                            self._state, evidence_delta
                        )
                        self.relation.delete(rid_list)
                        self._state.indexes.remove_rows(rid_list)
                else:
                    evidence_delta = EvidenceSet()
                    removed_masks = []
                with span("notify"):
                    for monitor in self._monitors:
                        monitor.apply_delete_delta(
                            evidence_delta, len(self.relation)
                        )
                    for watcher in self._watchers:
                        watcher.on_delete(rid_list)
            with span("enumeration", {"einc_size": len(removed_masks)}):
                self._backend.delete(
                    removed_masks, list(self._state.evidence)
                )

        instrumentation.inc("discoverer.deletes")
        instrumentation.inc("discoverer.rows_deleted", len(rid_list))
        instrumentation.inc("enumeration.einc_size", len(removed_masks))
        return self._update_result(
            "delete", rid_list, len(removed_masks), previous_masks, root, before
        )

    def _insert_verify(self, rows: Iterable[Sequence]) -> UpdateResult:
        """Verify-mode insert: index the rows, extend the violation sets
        of the tracked DCs — no evidence work, no enumeration."""
        instrumentation = self.instrumentation
        before = instrumentation.begin_operation()
        previous_masks = set(self._backend.mask_set)
        with instrumentation.activate(), span("insert") as root:
            with span("evidence"):
                new_rids = self.relation.insert(rows)
                annotate("batch_rows", len(new_rids))
                if new_rids:
                    with span("index_update"):
                        self._state.indexes.add_rows(new_rids)
                with span("notify"):
                    n_new_pairs = 0
                    for watcher in self._watchers:
                        damage = watcher.on_insert(new_rids)
                        if watcher is self._verify_watcher:
                            n_new_pairs = sum(
                                len(pairs) for pairs in damage.values()
                            )
        instrumentation.inc("discoverer.inserts")
        instrumentation.inc("discoverer.rows_inserted", len(new_rids))
        instrumentation.inc("verification.new_violations", n_new_pairs)
        return self._update_result(
            "insert", new_rids, 0, previous_masks, root, before
        )

    def _delete_verify(self, rids: Iterable[int]) -> UpdateResult:
        """Verify-mode delete: unindex the rows, drop their violating
        pairs — no evidence work, no enumeration."""
        rid_list = sorted(rids)
        for rid in rid_list:
            if not self.relation.is_alive(rid):
                raise KeyError(f"rid {rid} is not an alive row")
        if len(set(rid_list)) != len(rid_list):
            raise ValueError("duplicate rids in delete batch")
        instrumentation = self.instrumentation
        before = instrumentation.begin_operation()
        previous_masks = set(self._backend.mask_set)
        with instrumentation.activate(), span("delete") as root:
            with span("evidence", {"batch_rows": len(rid_list)}):
                if rid_list:
                    with span("index_update"):
                        self.relation.delete(rid_list)
                        self._state.indexes.remove_rows(rid_list)
                with span("notify"):
                    n_cleared = 0
                    for watcher in self._watchers:
                        removed = watcher.on_delete(rid_list)
                        if watcher is self._verify_watcher:
                            n_cleared = sum(
                                len(pairs) for pairs in removed.values()
                            )
        instrumentation.inc("discoverer.deletes")
        instrumentation.inc("discoverer.rows_deleted", len(rid_list))
        instrumentation.inc("verification.cleared_violations", n_cleared)
        return self._update_result(
            "delete", rid_list, 0, previous_masks, root, before
        )

    def update(
        self, delete_rids: Iterable[int], insert_rows: Iterable[Sequence]
    ) -> Tuple[UpdateResult, UpdateResult]:
        """Mixed update, modeled as deletes followed by inserts
        (Section III-B).  Returns ``(delete_result, insert_result)``."""
        return self.delete(delete_rids), self.insert(insert_rows)

    def _update_result(
        self, kind, rids, n_changed, previous_masks, root, before
    ) -> UpdateResult:
        current = self._backend.mask_set
        n_new = len(current - previous_masks)
        n_removed = len(previous_masks) - len(current) + n_new
        instrumentation = self.instrumentation
        instrumentation.inc("discoverer.dcs_added", n_new)
        instrumentation.inc("discoverer.dcs_removed", n_removed)
        self._record_state_gauges()
        report = instrumentation.finish_operation(kind, root, before)
        logger.debug(
            "%s: |Δr|=%d, E^inc=%d, DCs +%d/-%d in %.3fs",
            kind, len(rids), n_changed, n_new, n_removed, root.duration,
        )
        return UpdateResult(
            kind=kind,
            delta_size=len(rids),
            n_rows=len(self.relation),
            n_evidence=len(self._state.evidence),
            n_evidence_changed=n_changed,
            n_dcs=len(current),
            n_new_dcs=n_new,
            n_removed_dcs=n_removed,
            rids=list(rids),
            timings=report.phase_timings(),
            report=report,
        )

    def _record_state_gauges(self) -> None:
        instrumentation = self.instrumentation
        instrumentation.set_gauge("discoverer.rows", len(self.relation))
        instrumentation.set_gauge(
            "discoverer.evidence_distinct", len(self._state.evidence)
        )
        instrumentation.set_gauge("discoverer.dcs", len(self._backend.mask_set))

    # -- results ------------------------------------------------------------------

    @property
    def dc_masks(self) -> List[int]:
        """Current minimal DC predicate masks (the empty mask excluded)."""
        self._require_fitted()
        return [mask for mask in self._backend.masks if mask]

    @property
    def dc_mask_set(self) -> AbstractSet[int]:
        """:attr:`dc_masks` as an unsorted read-only view, valid until the
        next update — for per-write consumers that cannot afford to sort
        all of Σ."""
        self._require_fitted()
        masks = self._backend.mask_set
        return masks - {0} if 0 in masks else masks

    @property
    def n_dcs(self) -> int:
        """``len(self.dc_masks)``, without building the list."""
        return len(self.dc_mask_set)

    @property
    def dcs(self) -> List[DenialConstraint]:
        """Current minimal, non-trivial DCs."""
        return [DenialConstraint(mask, self.space) for mask in self.dc_masks]

    @property
    def canonical_dcs(self) -> List[DenialConstraint]:
        """Current DCs with implied operator pairs rewritten to their
        canonical single operator (``{≤,≥}→{=}``, ``{≠,≤}→{<}``,
        ``{≠,≥}→{>}``) and the resulting duplicates removed — a smaller,
        semantically equivalent presentation of :attr:`dcs`."""
        from repro.dcs.canonical import canonicalize_masks

        return [
            DenialConstraint(mask, self.space)
            for mask in canonicalize_masks(self.dc_masks, self.space)
        ]

    @property
    def evidence_set(self):
        """The maintained evidence set (with multiplicities)."""
        self._require_fitted()
        return self._state.evidence

    @property
    def engine_state(self):
        """The full evidence-engine state (indexes, tuple index, …)."""
        self._require_fitted()
        return self._state

    def rank(self, top_k: Optional[int] = None, **weights) -> List[DCScore]:
        """Rank the current DCs by interestingness (Section II)."""
        return rank_dcs(self.dcs, self.evidence_set, top_k=top_k, **weights)

    def approximate(self, epsilon: float) -> List[DenialConstraint]:
        """Approximate DCs from the maintained evidence multiplicities."""
        self._require_fitted()
        masks = approximate_dcs(self.space, self._state.evidence, epsilon)
        return [DenialConstraint(mask, self.space) for mask in masks if mask]

    def attach_approximate_monitor(self, epsilon: float):
        """Track the ε-approximate DCs across future updates.

        Returns an :class:`~repro.dcs.dynamic_approximate.ApproximateDCMonitor`
        whose violation counters are maintained exactly on every
        ``insert``/``delete`` of this discoverer (the dynamic
        approximate-DC layer the paper defers to future work).
        """
        self._require_fitted()
        from repro.dcs.dynamic_approximate import ApproximateDCMonitor

        monitor = ApproximateDCMonitor(
            self.space, self._state.evidence, epsilon, len(self.relation)
        )
        self._monitors.append(monitor)
        return monitor

    def verification_report(self, sample: int = 10) -> dict:
        """Per-constraint verdicts of a ``mode="verify"`` discoverer.

        Counts come straight from the incrementally maintained watcher —
        no rescan.  ``sample`` caps the violating pairs listed per DC.
        """
        self._require_fitted()
        if self._verify_watcher is None:
            raise RuntimeError("verification_report() requires mode='verify'")
        constraints = []
        for dc in self._verify_watcher.dcs:
            pairs = sorted(self._verify_watcher.violations(dc))
            constraints.append(
                {
                    "dc": str(dc),
                    "mask": format(dc.mask, "x"),
                    "holds": not pairs,
                    "n_violations": len(pairs),
                    "sample_pairs": [list(pair) for pair in pairs[:sample]],
                }
            )
        return {
            "mode": self.mode,
            "n_rows": len(self.relation),
            "n_constraints": len(constraints),
            "n_violated": sum(
                1 for entry in constraints if not entry["holds"]
            ),
            "total_violations": sum(
                entry["n_violations"] for entry in constraints
            ),
            "constraints": constraints,
        }

    def attach_violation_watcher(self, dcs: Iterable[DenialConstraint]):
        """Maintain the violating pairs of the given DCs across updates.

        The DCs need not be valid — watching *invalid* constraints (e.g.
        business rules the data is known to break) is the typical
        data-cleaning use.  Returns a
        :class:`~repro.dcs.watcher.ViolationWatcher` updated on every
        ``insert``/``delete`` of this discoverer.
        """
        self._require_fitted()
        from repro.dcs.watcher import ViolationWatcher

        watcher = ViolationWatcher(self.relation, self._state.indexes, dcs)
        self._watchers.append(watcher)
        return watcher

    def __repr__(self) -> str:
        status = "fitted" if self._fitted else "unfitted"
        return (
            f"DCDiscoverer({status}, {len(self.relation)} rows, "
            f"backend={self.enumeration_backend})"
        )
