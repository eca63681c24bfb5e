"""Raw-``int`` bit patterns, the one set representation of the engine.

The paper stores evidence-context rid sets and index entries as compressed
bitmaps and performs the reconciliation of Algorithm 1 with logical
operations on them (Section V-D).  Here every such set is a plain Python
``int`` whose bit ``i`` says that row ``i`` is a member: CPython evaluates
``&``, ``|``, ``^`` and ``bit_count`` over machine words in C.
:mod:`repro.bitmaps.bitutils` holds the few operations ``int`` lacks.
The pure-Python roaring bitmap of [13] lives on as a benchmark fixture:
``benchmarks/bench_ablation_bitmaps.py`` measures it against the ``int``.
"""
