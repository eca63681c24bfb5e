"""Summary statistics and the result line."""

from __future__ import annotations

import json
import resource
import statistics
from typing import Dict, List, Sequence

#: Fits (set-ups) per run; ``setup_s`` reports their median.  Library
#: workloads fit more often while their fits took under SETUP_MIN_S.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, min(len(ordered), -(-len(ordered) * pct // 100)))
    return ordered[int(rank) - 1]


def tail_percentile(n: int, highest: float = 99.0) -> float:
    """The highest ladder percentile, at most ``highest``, that leaves at
    least ten of ``n`` samples above it (the median below twenty)."""
    for pct in TAIL_LADDER:
        if pct <= highest and n * (100.0 - pct) / 100.0 >= 10:
            return pct
    return TAIL_LADDER[-1]


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Report:
    """Metrics of one run, printed as the final JSON line."""

    def __init__(self):
        self.metrics: Dict[str, dict] = {}
        self.notes: List[str] = []

    def add(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}
        if note:
            self.notes.append(f"{name}: {note}")

    def add_tail(self, name: str, samples: Sequence[float], unit: str, pct: float) -> None:
        value = percentile(samples, pct)
        beyond = sum(1 for sample in samples if sample > value)
        self.add(name, value, unit, f"p{pct:g} of {len(samples)} samples, {beyond} beyond it")

    def emit(self, correct: bool, attempted: int, failed: int, names: Sequence[str]) -> None:
        """Print a readable table, then the result object as the last line.

        Only ``names`` go into the result object, in that order.
        """
        metrics = {}
        for name in names:
            metrics[name] = self.metrics[name]
            print(f"{name:<42s} {self.metrics[name]['value']:>14.4f} {self.metrics[name]['unit']}")
        for note in self.notes:
            print(f"  {note}")
        print(
            json.dumps(
                {
                    "correct": bool(correct),
                    "attempted": int(attempted),
                    "failed": int(failed),
                    "metrics": metrics,
                }
            ),
            flush=True,
        )
