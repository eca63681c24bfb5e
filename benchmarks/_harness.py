"""Shared infrastructure for the experiment benchmarks.

Every benchmark module reproduces one table or figure of the paper (see
DESIGN.md §5 and EXPERIMENTS.md).  This module provides:

- scaled-down default workload sizes per dataset (the originals are far
  beyond a pure-Python per-pair budget; scale with ``REPRO_BENCH_SCALE``);
- cached static bootstraps: fitting 3DC on the static part of a workload
  is the *setup* of every dynamic experiment, so fitted states are cloned
  from a serialized snapshot instead of re-fitted;
- a plain-text table writer that prints each reproduced table/figure and
  persists it under ``benchmarks/results/`` — alongside a machine-readable
  JSON twin (``results/<name>.json``, deterministic key order) carrying
  the same rows plus any per-phase breakdowns recorded with
  :meth:`ResultTable.add_phases`, so perf PRs get a diffable before/after
  trajectory for free.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Optional

from repro.core.discoverer import DCDiscoverer
from repro.core.state_io import state_from_dict, state_to_dict
from repro.workloads import DATASETS, split_for_insert

#: Scale multiplier for all row counts (e.g. REPRO_BENCH_SCALE=4 for a
#: longer, larger run on a faster machine).
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Default *total* row counts per dataset before the 70/30 split.  The
#: originals (PAPER_ROW_COUNTS) are 14 k – 780 k; these are chosen so the
#: full benchmark suite completes in minutes in pure Python while keeping
#: the datasets' relative difficulty (Adult and UCE hardest per row).
BASE_ROWS = {
    "Adult": 360,
    "Airport": 700,
    "Atom": 500,
    "Claim": 600,
    "Dit": 900,
    "FD": 320,
    "Flight": 320,
    "Hospital": 700,
    "Inspection": 500,
    "NCVoter": 400,
    "Tax": 600,
    "UCE": 300,
}

#: Datasets used by the sweep figures (a representative mix, as the paper
#: does for its in-depth Section VII-C experiments).
SWEEP_DATASETS = ("Airport", "Claim", "Dit", "Tax")

#: Where tables are written: the committed ``benchmarks/results/`` by
#: default, or ``REPRO_RESULTS_DIR`` (``bench_gate.py`` points it at a
#: scratch directory so a gate run leaves the committed files alone).
RESULTS_DIR = Path(
    os.environ.get("REPRO_RESULTS_DIR") or Path(__file__).parent / "results"
)


def rows_for(name: str) -> int:
    """Scaled total row count for a dataset."""
    return max(40, int(BASE_ROWS[name] * SCALE))


def dataset_rows(name: str, n_rows: int, seed: int = 0):
    """Raw rows of a synthetic dataset."""
    return DATASETS[name].rows(n_rows, seed=seed)


_state_cache = {}


def fitted_state_payload(name: str, static_rows, **discoverer_kwargs) -> dict:
    """Serialized snapshot of a discoverer fitted on ``static_rows``.

    Cached per (dataset, size, config) so the many per-ratio measurements
    of one experiment share a single static bootstrap.
    """
    key = (name, len(static_rows), tuple(sorted(discoverer_kwargs.items())))
    if key not in _state_cache:
        from repro.relational.loader import relation_from_rows

        relation = relation_from_rows(
            DATASETS[name].header, static_rows
        )
        discoverer = DCDiscoverer(relation, **discoverer_kwargs)
        discoverer.fit()
        _state_cache[key] = state_to_dict(discoverer)
    return _state_cache[key]


def clone_discoverer(payload: dict) -> DCDiscoverer:
    """Fresh, independent discoverer from a cached snapshot."""
    return state_from_dict(payload)


def insert_workload(
    name: str, ratio: float, total_rows: Optional[int] = None, seed: int = 0
):
    """The paper's insert workload: retain 70 %, draw ``ratio``·|r| extra.

    Returns ``(static_rows, delta_rows)``; the delta is floored at one row
    (0.1 % of a scaled-down table would otherwise be empty).
    """
    if total_rows is None:
        total_rows = rows_for(name)
    rows = dataset_rows(name, total_rows, seed=seed)
    workload = split_for_insert(rows, ratio=ratio, retain=0.7, seed=seed)
    delta = list(workload.delta_rows)
    if not delta:
        spare = rows[workload.static_size :]
        delta = list(spare[:1])
    return list(workload.static_rows), delta


def timed(callable_):
    """Run ``callable_`` once, returning (result, elapsed_seconds)."""
    started = time.perf_counter()
    result = callable_()
    return result, time.perf_counter() - started


class ResultTable:
    """Collects rows and renders/persists a paper-style table."""

    def __init__(self, title: str, columns, filename: str):
        self.title = title
        self.columns = list(columns)
        self.filename = filename
        self.rows = []
        self.phases = {}
        self.counters = {}
        #: Free-form extra payloads for the JSON twin (e.g. per-endpoint
        #: latency quantiles) — keep values JSON-serializable.
        self.extras = {}

    def add(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row arity {len(values)} != {len(self.columns)} columns"
            )
        self.rows.append(values)

    def add_phases(self, label: str, source) -> None:
        """Record a per-phase wall-clock breakdown for the JSON report.

        ``source`` is a ``RunReport`` (its first span level is used), a
        result object carrying one (``.report``), or a plain
        ``{phase: seconds}`` dict.  When the source carries probe
        counters, they are snapshotted alongside the timings: wall-clock
        is noisy, but the work counters (pair comparisons, context
        refinements, index probes) are deterministic, so the JSON twin
        doubles as a regression oracle for the CI bench gate.
        """
        report = getattr(source, "report", source)
        if hasattr(report, "phase_timings"):
            breakdown = report.phase_timings()
            self.add_counters(label, source)
        elif isinstance(report, dict):
            breakdown = dict(report)
        else:
            raise TypeError(
                f"cannot extract phase timings from {type(source).__name__}"
            )
        self.phases[label] = {
            phase: round(seconds, 6) for phase, seconds in breakdown.items()
        }

    def add_counters(self, label: str, source) -> None:
        """Snapshot the probe counters of a run into the JSON report."""
        report = getattr(source, "report", source)
        metrics = getattr(report, "metrics", None)
        counters = metrics.get("counters") if isinstance(metrics, dict) else None
        if counters:
            self.counters[label] = {
                name: counters[name] for name in sorted(counters)
            }

    def _format(self) -> str:
        def render(value):
            if isinstance(value, float):
                return f"{value:.3f}"
            return str(value)

        rendered = [[render(v) for v in row] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(row[i]) for row in rendered))
            if rendered
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in rendered:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        return "\n".join(lines)

    def _json_payload(self, shape_notes) -> dict:
        def jsonable(value):
            if isinstance(value, float):
                return round(value, 6)
            if value is None or isinstance(value, (int, str, bool)):
                return value
            return str(value)

        return {
            "title": self.title,
            "columns": self.columns,
            "rows": [[jsonable(value) for value in row] for row in self.rows],
            "notes": list(shape_notes),
            "phases": self.phases,
            "counters": self.counters,
            "extras": self.extras,
        }

    def finish(self, shape_notes=()) -> str:
        """Print the table, append shape-verdict notes, persist to disk.

        Writes two files under ``results/``: the human-readable text table
        and its JSON twin (same stem, ``.json`` suffix) with rows, notes,
        and any recorded per-phase breakdowns.  JSON keys are sorted so
        re-runs produce reviewable diffs.
        """
        text = self._format()
        for note in shape_notes:
            text += f"\nshape: {note}"
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        (RESULTS_DIR / self.filename).write_text(text + "\n")
        json_path = (RESULTS_DIR / self.filename).with_suffix(".json")
        json_path.write_text(
            json.dumps(self._json_payload(shape_notes), indent=2, sort_keys=True)
            + "\n"
        )
        print("\n" + text)
        return text


class CellTimeout(Exception):
    """A single experiment cell exceeded its time budget."""


def run_with_timeout(callable_, seconds: int):
    """Run ``callable_`` with a wall-clock cap, mirroring the paper's
    24 h-limit "—" cells.  Returns ``(result, elapsed)`` or raises
    :class:`CellTimeout`."""
    import signal

    def handler(signum, frame):
        raise CellTimeout()

    previous = signal.signal(signal.SIGALRM, handler)
    signal.alarm(seconds)
    try:
        started = time.perf_counter()
        result = callable_()
        return result, time.perf_counter() - started
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


#: Per-cell wall-clock budget (seconds) standing in for the paper's 24 h.
CELL_TIMEOUT = int(os.environ.get("REPRO_BENCH_CELL_TIMEOUT", "120"))


def geometric_speedup(pairs) -> float:
    """Geometric mean of baseline/candidate time ratios (>1 = faster)."""
    ratios = [base / cand for base, cand in pairs if cand > 0 and base > 0]
    if not ratios:
        return 1.0
    product = 1.0
    for ratio in ratios:
        product *= ratio
    return product ** (1.0 / len(ratios))
