#!/usr/bin/env python3
"""The repository benchmark: 3DC maintenance cost, end to end and by layer.

One command runs one workload, prints every metric by name with its
unit, checks the program's outputs against a static re-discovery and
ends with one JSON result line::

    python3 dcbench/run.py --workload sliding_window --seed 1 --seconds 45 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` wraps each layer's public functions and reports the
per-layer metrics instead.  ``--self-test`` checks the seeded input
generator; ``--smoke`` runs every workload at tiny sizes and lists every
metric with its unit.  The exit code is 0 only when every check passed.
See ``dcbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("sliding_window", "served_writes")


def load_catalog() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(workload, seed, seconds, trace, smoke=False):
    """Run one workload; returns ``(report, attempted, failed, problem)``."""
    started = perf_counter()
    import repro.core.discoverer  # noqa: F401  (timed as part of set-up)
    import repro.relational.loader  # noqa: F401

    import_s = perf_counter() - started

    from loadgen import make_inputs

    inputs = make_inputs(workload, seed, seconds, smoke=smoke)
    workdir = os.path.join(ROOT, ".dcbench_work", f"{workload}-{seed}-{os.getpid()}")
    traces = os.path.join(ROOT, ".dcbench_work", "traces")
    spans_path = os.path.join(traces, f"{workload}-seed{seed}.json")
    os.makedirs(workdir, exist_ok=True)
    try:
        if workload == "served_writes":
            import served

            report, attempted, failed, problem = served.run(inputs, seconds, trace, workdir)
            spans = os.path.join(workdir, "pass-1", "spans.json")
            if trace and os.path.exists(spans):
                os.makedirs(traces, exist_ok=True)
                shutil.move(spans, spans_path)
        else:
            import library

            report, loop, problem = library.run(
                workload, inputs, seconds, trace, import_s, spans_path
            )
            attempted, failed = max(1, loop.calls), loop.failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report, attempted, failed, problem


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="3DC repository benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that inputs are a function of the seed")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at tiny sizes; list every metric")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program's sources are missing ({SRC}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    catalog = load_catalog()

    if args.self_test:
        from loadgen import self_test

        problems = self_test(args.seconds)
        for problem in problems:
            print(f"self-test: {problem}")
        print("self-test: " + ("FAILED" if problems else "inputs are a function of the seed"))
        return 1 if problems else 0

    if args.smoke:
        return smoke(catalog)

    if args.workload is None:
        parser.error("--workload is required")
    report, attempted, failed, problem = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    names = [m["name"] for m in catalog["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in catalog["per_layer"] + catalog["end_to_end"]}
    for name in names:
        # Per-layer metrics of layers this workload never calls read 0.
        if name not in report.metrics:
            report.add(name, 0.0, units[name])
    if problem:
        print(f"CHECK FAILED: {problem}")
    report.emit(problem is None, attempted, failed, names)
    return 0 if problem is None else 1


def smoke(catalog) -> int:
    """Every workload, untraced and traced, at tiny sizes."""
    status = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            report, attempted, failed, problem = run_workload(
                workload, 1, 2.0, trace, smoke=True
            )
            kind = "per_layer" if trace else "end_to_end"
            print(f"== {workload} ({kind}): {'ok' if problem is None else problem}")
            for entry in catalog[kind]:
                metric = report.metrics.get(entry["name"])
                shown = "n/a" if metric is None else f"{metric['value']:.4f}"
                if metric is not None and metric["unit"] != entry["unit"]:
                    problem = problem or f"{entry['name']}: unit {metric['unit']} != {entry['unit']}"
                print(f"  {entry['name']:<40s} {shown:>14s} {entry['unit']}")
            if problem is not None:
                print(f"  FAILED: {problem}")
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
