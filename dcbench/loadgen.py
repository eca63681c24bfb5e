"""Seeded inputs of the three workloads.

Everything a run feeds the program is derived here from the workload seed
and nothing else: the program only ever receives the generated rows and,
for ``served_writes``, the arrival schedule.

Each workload draws from one fixed row sequence of its dataset (dataset
seed 0): the first rows are the static relation ``fit`` runs on, the
rest arrive afterwards.  The seed shuffles that sequence within blocks of
:data:`BLOCK` rows and draws the arrival times.  A window pass consumes a
whole number of blocks, so every seed does the same amount of work per
pass and ends a pass on the same rows: Σ follows nearly the same
path for every seed, and run-to-run spread reflects the program and the
machine, not the luck of the draw.

Run ``python3 dcbench/run.py --self-test`` to check that one seed always
yields the same inputs and that another seed yields different ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Tuple

#: Rows are shuffled within consecutive blocks of this many.
BLOCK = 16

#: Sizes of each workload; ``--smoke`` shrinks the row counts.  ``pool``
#: is the rows one window pass inserts (a multiple of :data:`BLOCK`); a
#: run alternates ``orders`` seeded orders of its pass, because a pass
#: owes most of its time to three DynEI delete regrowths whose cost
#: depends on the order.  Served writes and reads alternate, one of each
#: per ``period`` seconds.
SIZES = {
    "sliding_window": {"dataset": "Dit", "static": 300, "pool": 256, "orders": 3,
                       "window_k": 2},
    "served_writes": {"dataset": "Tax", "static": 420, "period": 0.75},
}
SMOKE_STATIC = 40
SMOKE_POOL = 32


@dataclass
class Order:
    """One seeded order of the steps of a window pass."""

    #: Rows inserted, in arrival order.
    stream: List[tuple]
    #: Positions in the static rows, in the order they age out.
    delete_order: List[int]


@dataclass
class Inputs:
    """The generated inputs of one run."""

    workload: str
    dataset: str
    header: Tuple[str, ...]
    #: Rows the discoverer is fitted on, oldest first.
    static: List[tuple]
    #: The orders window passes take in turn (sliding_window).
    orders: List[Order] = field(default_factory=list)
    #: Rows written, in order (served_writes).
    stream: List[tuple] = field(default_factory=list)
    #: Due offsets (seconds from the start) of each write / each read.
    write_due: List[float] = field(default_factory=list)
    read_due: List[float] = field(default_factory=list)
    #: Candidate rows checked by ``POST /check``.
    read_rows: List[tuple] = field(default_factory=list)

    def fingerprint(self) -> tuple:
        """Every seeded part of the inputs, for the self-test."""
        return (
            tuple(tuple(order.stream) for order in self.orders) + tuple(self.stream),
            tuple(tuple(order.delete_order) for order in self.orders),
            tuple(self.write_due),
            tuple(self.read_due),
            tuple(self.read_rows),
        )


def _block_shuffle(items: list, rng: random.Random) -> list:
    shuffled = []
    for start in range(0, len(items), BLOCK):
        block = items[start : start + BLOCK]
        rng.shuffle(block)
        shuffled.extend(block)
    return shuffled


def _schedule(rng: random.Random, period: float, seconds: float, phase: float) -> List[float]:
    """Open-loop due times: one per ``period`` slot at ``phase`` of the
    slot, jittered by up to 2 % of the period.  Writes and reads take
    opposite phases, so a read meets a write cycle only when the cycle
    overruns its half of the period; latency then measures the program,
    not how the draw bunched arrivals."""
    return [(slot + phase + rng.uniform(-0.02, 0.02)) * period
            for slot in range(int(seconds / period))]


def make_inputs(workload: str, seed: int, seconds: float, smoke: bool = False) -> Inputs:
    from repro.workloads import DATASETS

    sizes = SIZES[workload]
    spec = DATASETS[sizes["dataset"]]
    n_static = SMOKE_STATIC if smoke else sizes["static"]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "served_writes":
        n_writes = n_reads = int(seconds / sizes["period"])
        n_pool = n_writes + n_reads
    else:
        n_pool = SMOKE_POOL if smoke else sizes["pool"]
    rows = spec.rows(n_static + n_pool, seed=0)
    inputs = Inputs(workload, spec.name, tuple(spec.header), rows[:n_static])

    if workload == "sliding_window":
        for _ in range(sizes["orders"]):
            delete_order = _block_shuffle(list(range(n_static)), rng)
            stream = _block_shuffle(rows[n_static:], rng)
            inputs.orders.append(Order(stream, delete_order))
    else:
        # Writes and reads each draw a fixed set of rows in seeded order,
        # so every seed checks the same candidates.
        inputs.stream = _block_shuffle(rows[n_static : n_static + n_writes], rng)
        inputs.read_rows = rows[n_static + n_writes :]
        rng.shuffle(inputs.read_rows)
        inputs.write_due = _schedule(rng, sizes["period"], seconds, 0.02)
        inputs.read_due = _schedule(rng, sizes["period"], seconds, 0.72)
    return inputs


def self_test(seconds: float = 10.0) -> List[str]:
    """Problems found; empty when each seed always yields the same inputs
    and another seed yields different ones."""
    labels = ("rows", "delete order", "write schedule", "read schedule", "read rows")
    problems = []
    for workload in SIZES:
        first = make_inputs(workload, 1, seconds).fingerprint()
        again = make_inputs(workload, 1, seconds).fingerprint()
        other = make_inputs(workload, 2, seconds).fingerprint()
        if first != again:
            problems.append(f"{workload}: seed 1 gave two different inputs")
        for label, mine, theirs in zip(labels, first, other):
            if mine and mine == theirs:
                problems.append(f"{workload}: seeds 1 and 2 gave the same {label}")
    return problems
