"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import settings as hypothesis_settings

from repro.durability.faults import get_injector
from repro.relational import relation_from_rows
from repro.workloads import staff_relation

# Hypothesis budgets.  Tests that pin max_examples keep their pin; tests
# that only set deadline=None (the differential verification suites)
# inherit the active profile, so the dedicated CI job can re-run them
# with a 10x example budget via HYPOTHESIS_PROFILE=verification.
hypothesis_settings.register_profile("default", max_examples=30, deadline=None)
hypothesis_settings.register_profile(
    "verification", max_examples=300, deadline=None
)
hypothesis_settings.load_profile(
    os.environ.get("HYPOTHESIS_PROFILE", "default")
)


@pytest.fixture
def fault_injector():
    """The global fault injector, guaranteed disarmed after the test."""
    injector = get_injector()
    injector.reset()
    yield injector
    injector.reset()


@pytest.fixture
def staff():
    """The paper's Table I staff relation (initial four tuples)."""
    return staff_relation()


@pytest.fixture
def abc_factory():
    """Factory for small random (int, str, int) relations."""

    def make(n_rows: int, seed: int, int_range: int = 4, letters: str = "abc"):
        rng = random.Random(seed)
        rows = [
            (
                rng.randint(0, int_range),
                rng.choice(letters),
                rng.randint(0, int_range - 1),
            )
            for _ in range(n_rows)
        ]
        return relation_from_rows(["A", "B", "C"], rows)

    return make


def random_rows(rng: random.Random, n_rows: int, int_range: int = 4):
    """Random (int, str, int) rows drawing from a tight domain so that
    evidence redundancy and DC structure both appear."""
    return [
        (
            rng.randint(0, int_range),
            rng.choice("abc"),
            rng.randint(0, max(1, int_range - 1)),
        )
        for _ in range(n_rows)
    ]


def replay_committed(oracle, writes) -> None:
    """Apply served writes to ``oracle`` serially, as the writer did.

    ``writes`` holds one ``(op, sent, outcome)`` triple per committed
    request: the rows an insert sent or the rids a delete sent, and the
    outcome the client received.  The writer merges one cycle's requests
    into one delete, then one insert, so the replay groups the writes by
    ``cycle_trace_id``, runs the cycles in ``seq`` order, and sends each
    cycle's insert rows in rid order (asserting the same rids again).
    """
    cycles = {}
    for op, sent, outcome in writes:
        cycle = cycles.setdefault(
            outcome["cycle_trace_id"],
            {"seq": outcome["seq"], "deletes": [], "inserts": []},
        )
        if op == "insert":
            cycle["inserts"].append((list(outcome["rids"]), list(sent)))
        else:
            cycle["deletes"].extend(outcome["rids"])
    for cycle in sorted(cycles.values(), key=lambda entry: entry["seq"]):
        if cycle["deletes"]:
            oracle.delete(cycle["deletes"])
        if cycle["inserts"]:
            inserts = sorted(cycle["inserts"], key=lambda pair: pair[0])
            rows = [tuple(row) for _, sent in inserts for row in sent]
            rids = [rid for got, _ in inserts for rid in got]
            assert oracle.insert(rows).rids == rids
