"""Verification-first fast path: near-linear DC checking (Rapidash [PAPERS]).

Evidence construction is inherently pairwise, but deciding "does DC φ
hold on r" — and counting or enumerating its violating pairs — does not
have to be: one predicate of φ is *swept* through the column indexes the
evidence engine already maintains (one block per distinct value, order
predicates via a sorted merge with cumulative bitmap unions), and the
remaining predicates are refined per tuple only inside non-empty blocks.

:mod:`repro.verification.kernel` implements the sweep-and-probe
:class:`Verifier`.  See docs/verification.md.
"""

from repro.verification.kernel import VerificationResult, Verifier

__all__ = ["VerificationResult", "Verifier"]
