"""Pluggable enumeration backends for the discoverer.

Both backends maintain the minimal-DC antichain across evidence-set
changes; :class:`DynEIBackend` is the paper's contribution (Section VI),
:class:`DynHSBackend` the dynamic hitting-set baseline [19].  The
discoverer talks to them through three methods: ``bootstrap``, ``insert``,
and ``delete``; the last two return the net
:class:`~repro.enumeration.incidence.SigmaDelta` they applied, so the
discoverer never copies or diffs Σ.
"""

from __future__ import annotations

from typing import AbstractSet, FrozenSet, Iterable, List, Sequence

from repro.enumeration.dynamic import dynei_delete
from repro.enumeration.dynamic_hs import DynHS
from repro.enumeration.incidence import NO_DELTA, IncidenceSet, SigmaDelta
from repro.enumeration.inversion import maximal_masks, refine_sigma
from repro.enumeration.mmcs import mmcs_enumerate
from repro.predicates.space import PredicateSpace


class DynEIBackend:
    """Dynamic evidence inversion (3DC's enumerator).

    The *static* bootstrap enumerator is a free choice (Figure 2: any
    static algorithm can feed the first 3DC call).  The paper picks EI
    because it is fastest in the Java implementations it builds on; in
    this Python substrate MMCS is markedly faster for full bootstraps
    (EI's intermediate-antichain churn dominates), so the bootstrap uses
    MMCS while all *incremental* maintenance is DynEI, as in the paper.
    """

    name = "dynei"

    def __init__(self, space: PredicateSpace):
        self._space = space
        self._sigma = IncidenceSet()

    def bootstrap(self, evidence_masks: Iterable[int]) -> None:
        self._sigma = IncidenceSet(mmcs_enumerate(self._space, evidence_masks))

    def insert(
        self, new_evidence_masks: Sequence[int], remaining_unused=None
    ) -> SigmaDelta:
        # Σ persists across batches, so an insert only pays for the
        # evidences it actually folds in (Algorithm 2).
        if not new_evidence_masks:
            return NO_DELTA
        return refine_sigma(
            self._space, self._sigma, maximal_masks(new_evidence_masks)
        )

    def delete(
        self,
        removed_evidence_masks: Sequence[int],
        remaining_evidence_masks: Iterable[int],
    ) -> SigmaDelta:
        # Like insert, the delete applies its Σ delta in place.
        return dynei_delete(
            self._space,
            self._sigma,
            removed_evidence_masks,
            remaining_evidence_masks,
        )

    @property
    def masks(self) -> List[int]:
        return sorted(self._sigma)

    @property
    def mask_set(self) -> AbstractSet[int]:
        return self._sigma.mask_set

    def set_masks(
        self, masks: Sequence[int], evidence_masks: Iterable[int] = ()
    ) -> None:
        """Restore a previously saved antichain (state deserialization)."""
        self._sigma = IncidenceSet(masks)


class DynHSBackend:
    """Dynamic hitting-set enumeration (the [19] baseline)."""

    name = "dynhs"

    def __init__(self, space: PredicateSpace):
        self._space = space
        self._enumerator = DynHS(space)

    def bootstrap(self, evidence_masks: Iterable[int]) -> None:
        self._enumerator = DynHS(self._space, evidence_masks)

    def insert(
        self, new_evidence_masks: Sequence[int], remaining_unused=None
    ) -> SigmaDelta:
        before = set(self._enumerator.dc_mask_set)
        self._enumerator.insert_evidence(new_evidence_masks)
        return self._delta_since(before)

    def delete(
        self,
        removed_evidence_masks: Sequence[int],
        remaining_evidence_masks: Iterable[int],
    ) -> SigmaDelta:
        before = set(self._enumerator.dc_mask_set)
        self._enumerator.delete_evidence(
            removed_evidence_masks, remaining_evidence_masks
        )
        return self._delta_since(before)

    def _delta_since(self, before: set) -> SigmaDelta:
        after = self._enumerator.dc_mask_set
        return SigmaDelta(after - before, before - after)

    @property
    def masks(self) -> List[int]:
        return self._enumerator.dc_masks

    @property
    def mask_set(self) -> AbstractSet[int]:
        return self._enumerator.dc_mask_set

    def set_masks(
        self, masks: Sequence[int], evidence_masks: Iterable[int] = ()
    ) -> None:
        raise NotImplementedError(
            "DynHS cannot restore from bare masks — it needs criticality "
            "state; bootstrap from the evidence set instead"
        )


class FixedSigmaBackend:
    """A frozen antichain for verify-only maintenance.

    ``mode="verify"`` tracks a *fixed* Σ instead of rediscovering: every
    enumeration hook is a no-op, ``masks`` always returns the constraints
    the discoverer was configured with.  Masks are installed via
    :meth:`set_masks` (at ``fit()`` or state restore).
    """

    name = "fixed"

    def __init__(self, space: PredicateSpace):
        self._space = space
        self._masks: FrozenSet[int] = frozenset()

    def bootstrap(self, evidence_masks: Iterable[int]) -> None:
        pass

    def insert(
        self, new_evidence_masks: Sequence[int], remaining_unused=None
    ) -> SigmaDelta:
        return NO_DELTA

    def delete(
        self,
        removed_evidence_masks: Sequence[int],
        remaining_evidence_masks: Iterable[int],
    ) -> SigmaDelta:
        return NO_DELTA

    @property
    def masks(self) -> List[int]:
        return sorted(self._masks)

    @property
    def mask_set(self) -> AbstractSet[int]:
        return self._masks

    def set_masks(
        self, masks: Sequence[int], evidence_masks: Iterable[int] = ()
    ) -> None:
        self._masks = frozenset(masks)


_BACKENDS = {
    "dynei": DynEIBackend,
    "dynhs": DynHSBackend,
    "fixed": FixedSigmaBackend,
}


def make_backend(name: str, space: PredicateSpace):
    """Instantiate an enumeration backend by name."""
    try:
        factory = _BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"unknown enumeration backend {name!r}; available: {sorted(_BACKENDS)}"
        ) from None
    return factory(space)
