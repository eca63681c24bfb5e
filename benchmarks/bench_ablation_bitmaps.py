"""Ablation — bitmap backend: raw-int bitsets vs roaring bitmaps.

DESIGN.md calls out the rid-set representation as a design choice: the
paper uses compressed (roaring-style) bitmaps in Java [13]; in CPython the
arbitrary-precision ``int`` executes the same logical operations in C.
This ablation measures both backends on the operation mix the evidence
engine actually performs (intersections/differences between index entries
and context rid sets) plus a sparse/clustered membership workload where
roaring's chunking pays off in *memory*, not time.  The engine keeps
its rid sets in raw ints; both backends here are fixtures from
``_set_structures.py``.
"""

import random
import tracemalloc

from _harness import ResultTable, timed
from _set_structures import IntBitset, RoaringBitmap

N_ROWS = 20_000
N_OPS = 400


def _operands(backend, rng):
    """Index-entry-like operands: clustered runs plus random scatter."""
    operands = []
    for _ in range(40):
        start = rng.randrange(N_ROWS - 600)
        run = set(range(start, start + rng.randrange(50, 500)))
        scatter = {rng.randrange(N_ROWS) for _ in range(200)}
        operands.append(backend.from_iterable(run | scatter))
    return operands


def _workload(backend, seed=0):
    rng = random.Random(seed)
    operands = _operands(backend, rng)
    acc = backend.full(N_ROWS)
    checksum = 0
    for i in range(N_OPS):
        left = operands[i % len(operands)]
        right = operands[(i * 7 + 3) % len(operands)]
        intersection = left & right
        difference = acc - intersection
        union = left | right
        # A sum, not an XOR: each operand pair recurs an even number of
        # times, so XORed lengths would cancel to 0 on any backend.
        checksum += len(intersection) + len(difference) + len(union)
    return checksum


def _peak_memory(backend):
    rng = random.Random(1)
    tracemalloc.start()
    try:
        keep = _operands(backend, rng) + [backend.full(N_ROWS)]
        _, peak = tracemalloc.get_traced_memory()
        del keep
        return peak
    finally:
        tracemalloc.stop()


def test_ablation_bitmap_backends(benchmark):
    table = ResultTable(
        "Ablation — bitmap backends on the evidence-engine op mix",
        ["backend", "ops time (s)", "peak MiB (40 index entries)"],
        "ablation_bitmaps.txt",
    )
    results = {}
    checksums = {}
    for backend in (IntBitset, RoaringBitmap):
        checksum, elapsed = timed(lambda b=backend: _workload(b))
        peak = _peak_memory(backend)
        results[backend.__name__] = (elapsed, peak)
        checksums[backend.__name__] = checksum
        table.add(backend.__name__, elapsed, round(peak / 2**20, 3))

    int_time = results["IntBitset"][0]
    roaring_time = results["RoaringBitmap"][0]
    table.finish(
        shape_notes=[
            f"IntBitset is {roaring_time / int_time:.1f}x faster on the op "
            "mix in CPython — the reason the engine keeps rid sets in raw "
            "ints; the paper's roaring choice targets JVM memory behaviour",
        ]
    )
    # Both backends computed the same sets.
    assert checksums["IntBitset"] == checksums["RoaringBitmap"], checksums

    benchmark.pedantic(lambda: _workload(IntBitset), rounds=1, iterations=1)
