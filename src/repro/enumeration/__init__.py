"""DC enumeration engines (Section VI).

Four independently derived enumerators over evidence sets:

- :func:`~repro.enumeration.inversion.invert_evidence` — static evidence
  inversion (EI / Hydra [3]), the basis of 3DC's enumeration;
- :func:`~repro.enumeration.dynamic.dynei_insert` /
  :func:`~repro.enumeration.dynamic.dynei_delete` — **DynEI**, the paper's
  dynamic extension of EI;
- :func:`~repro.enumeration.mmcs.mmcs_enumerate` — minimal hitting set
  enumeration (Murakami & Uno [8], as used for DCs by [7]);
- :class:`~repro.enumeration.dynamic_hs.DynHS` — the dynamic hitting-set
  baseline [19];
- :func:`~repro.enumeration.dfs.dfs_enumerate` — FastDC-style depth-first
  search [4].

All return DC predicate-set bitmasks over a
:class:`~repro.predicates.space.PredicateSpace`.  DynEI keeps Σ in an
:class:`~repro.enumeration.incidence.IncidenceSet`.
"""

from repro.enumeration.incidence import IncidenceSet, SigmaDelta
from repro.enumeration.inversion import invert_evidence, minimize_masks, refine_sigma
from repro.enumeration.dynamic import dynei_delete, dynei_insert
from repro.enumeration.mmcs import complement_edges, mmcs_enumerate, mmcs_hitting_sets
from repro.enumeration.dynamic_hs import DynHS, dynhs_insert
from repro.enumeration.dfs import dfs_enumerate

__all__ = [
    "IncidenceSet",
    "SigmaDelta",
    "invert_evidence",
    "minimize_masks",
    "refine_sigma",
    "dynei_insert",
    "dynei_delete",
    "complement_edges",
    "mmcs_enumerate",
    "mmcs_hitting_sets",
    "DynHS",
    "dynhs_insert",
    "dfs_enumerate",
]
