"""CI performance-regression gate over the benchmark suite.

Wall-clock on shared CI runners is too noisy to gate on, so the gate
compares what *is* deterministic:

1. **Work counters** — the probe counters snapshotted into each
   ``results/*.json`` record (pair comparisons, context refinements,
   index probes, kernel batches).  They are a pure function of the
   workload, so any change means the engine is doing different work —
   a counter that grew beyond the tolerance fails the gate.
2. **State digests** — SHA-256 of the canonical serialized state after
   fixed maintenance workloads, computed per evidence backend.  The
   python and numpy kernels must agree with each other *and* with the
   committed baseline; the fork pool (workers=2, see
   docs/performance.md) must reproduce the serial digest and the serial
   ``evidence.*`` counters exactly, and its counters are gated like the
   benchmark work counters.
3. **DynEI delete counters** — the ``enumeration.*`` counters of each
   digest workload's delete (DCs dropped, flagged predicates re-checked
   against the evidence, DCs re-added and re-grown) are written to
   ``dynei_delete_gate.json`` and gated the same way; the gate
   fails outright when neither delete removed any evidence.
4. **Tracing is an observer with one recording path** — a traced run of
   a fixed workload must match the untraced run's counters and digest,
   and each traced call's flight records must form exactly that call's
   ``RunReport`` span tree (``trace_overhead_check``).

Usage::

    python benchmarks/bench_gate.py            # run benchmarks + compare
    python benchmarks/bench_gate.py --update   # refresh the baselines
    python benchmarks/bench_gate.py --skip-bench   # compare committed results

A comparing run writes every results file it produces (the benchmarks'
tables and the gate's own records) under ``.bench_gate/`` at the
repository root and reads the counters back from there, so
``benchmarks/results/`` stays byte-identical; only ``--update`` rewrites
the committed results and baselines.

The gate row counts are reduced (``GATE_SCALE``) so the whole job stays
in CI budget; baselines are committed for exactly that scale.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
#: Where a comparing run writes its results (``--update`` writes to
#: ``RESULTS_DIR``), so the committed files stay as they are.
OUT_DIR = REPO_ROOT / ".bench_gate"
BASELINE_PATH = BENCH_DIR / "baselines" / "bench_gate.json"

#: Row-count multiplier the gate runs (and its baselines were recorded) at.
GATE_SCALE = float(os.environ.get("REPRO_GATE_SCALE", "0.5"))

#: Benchmarks the gate executes, and the results files it then audits.
#: The two ablations emit no gated counters; they run so that every gate
#: run imports the benchmark-only set structures and checks that the
#: structures of each ablation agree.
GATE_BENCHMARKS = (
    "bench_ablation_bitmaps.py",
    "bench_ablation_settrie.py",
    "bench_fig5_insert_scaling.py",
    "bench_fig13_breakdown.py",
    "bench_verification.py",
    "bench_replication.py",
    "bench_fleet.py",
    "bench_service.py",
)
GATE_RESULTS = (
    "fig5_insert_scaling.json",
    "fig5_backend_speedup.json",
    "fig13a_breakdown_static.json",
    "fig13b_breakdown_inserts.json",
    "verification_kernel.json",
    "replication.json",
    "fleet_failover.json",
    "service_throughput.json",
)

#: Fixed digest workloads: (dataset, delete strategy).
DIGEST_WORKLOADS = (("Tax", "index"), ("Airport", "recompute"))

#: Untraced/traced run pairs of the trace-overhead check; the order
#: within a pair alternates so neither mode always runs warm.
TRACE_OVERHEAD_PAIRS = 5


def run_benchmarks(out_dir: Path) -> None:
    env = dict(os.environ)
    env["REPRO_BENCH_SCALE"] = str(GATE_SCALE)
    env["REPRO_RESULTS_DIR"] = str(out_dir)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    command = [
        sys.executable,
        "-m",
        "pytest",
        *(str(BENCH_DIR / name) for name in GATE_BENCHMARKS),
        "-q",
        "-p",
        "no:cacheprovider",
    ]
    print(
        f"gate: running benchmarks at scale {GATE_SCALE:g} into {out_dir}",
        flush=True,
    )
    subprocess.run(command, check=True, env=env, cwd=REPO_ROOT)


def collect_counters(results_dir: Path) -> dict:
    counters = {}
    for filename in GATE_RESULTS:
        path = results_dir / filename
        payload = json.loads(path.read_text())
        counters[filename] = payload.get("counters", {})
    return counters


def compute_digests() -> tuple:
    """Canonical state digests of fixed workloads, one per backend, and
    the ``enumeration.*`` counters of each workload's delete (from the
    first backend, python)."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.core.state_io import state_to_bytes
    from repro.evidence.kernels import numpy_available
    from _harness import (
        BASE_ROWS,
        clone_discoverer,
        fitted_state_payload,
        insert_workload,
    )

    backends = ("python", "numpy") if numpy_available() else ("python",)
    digests = {}
    deletes = {}
    for name, delete_strategy in DIGEST_WORKLOADS:
        label = f"{name}/{delete_strategy}"
        total_rows = max(40, int(BASE_ROWS[name] * GATE_SCALE))
        static_rows, delta_rows = insert_workload(
            name, 0.2, total_rows=total_rows
        )
        payload = fitted_state_payload(
            name, static_rows, delete_strategy=delete_strategy
        )
        per_backend = {}
        for backend in backends:
            discoverer = clone_discoverer(payload)
            discoverer.backend = backend
            half = len(delta_rows) // 2 or 1
            discoverer.insert(delta_rows[:half])
            rids = sorted(discoverer.relation.rids())
            deleted = discoverer.delete(rids[1::5])
            deletes.setdefault(label, {
                key: value
                for key, value in deleted.report.metrics["counters"].items()
                if key.startswith("enumeration.")
            })
            discoverer.insert(delta_rows[half:])
            per_backend[backend] = hashlib.sha256(
                state_to_bytes(discoverer)
            ).hexdigest()
        if len(set(per_backend.values())) != 1:
            raise SystemExit(
                f"gate: FAIL — backends disagree on {label}: {per_backend}"
            )
        digests[label] = next(iter(per_backend.values()))
        print(
            f"gate: digest {label} = {digests[label][:16]}… "
            f"({' = '.join(backends)})"
        )
    return digests, deletes


def write_record(out_dir: Path, filename: str, record: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / filename).write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )


def dynei_delete_gate(deletes: dict, out_dir: Path) -> dict:
    """Snapshot the digest workloads' DynEI delete counters.

    ``deletes`` maps each digest workload to the ``enumeration.*``
    counters of its delete.  They are written to
    ``dynei_delete_gate.json`` under ``out_dir`` and gated against the
    committed baselines like the benchmark work counters.  A gate whose deletes
    removed no evidence would never reach the drop / re-check / re-grow
    path, so that fails here.
    """
    if not any(
        counters.get("enumeration.einc_size", 0) for counters in deletes.values()
    ):
        raise SystemExit(
            "gate: FAIL — no digest workload's delete removed any evidence, "
            "so the DynEI delete path went unexercised"
        )
    gated = {
        label: {key: counters[key] for key in sorted(counters)}
        for label, counters in sorted(deletes.items())
    }
    record = {
        "workload": "digest workload deletes",
        "scale": GATE_SCALE,
        "counters": gated,
    }
    write_record(out_dir, "dynei_delete_gate.json", record)
    for label, counters in gated.items():
        print(
            f"gate: DynEI delete {label} — "
            f"{counters.get('enumeration.einc_size', 0)} evidences removed, "
            f"{counters.get('enumeration.dcs_dropped', 0)} DCs dropped, "
            f"{counters.get('enumeration.critical_rechecks', 0)} re-checks"
        )
    return gated


def pool_gate_check(digests: dict, out_dir: Path) -> dict:
    """Fork-pool determinism gate (docs/performance.md#the-fork-pool).

    Re-runs the first digest workload serially and at ``workers=2`` on
    the real fork pool.  The pooled run must reproduce the serial state
    digest and the serial ``evidence.*`` counters exactly — a stripe that
    drifts from the serial path fails the gate here even if every unit
    test was skipped.  The pooled run's ``evidence.*`` and ``parallel.*``
    counters are written to ``pool_gate.json`` under ``out_dir`` and gated
    against the committed baselines alongside the benchmark work counters.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.core.state_io import state_to_bytes
    from _harness import (
        BASE_ROWS,
        clone_discoverer,
        fitted_state_payload,
        insert_workload,
    )

    name, delete_strategy = DIGEST_WORKLOADS[0]
    total_rows = max(40, int(BASE_ROWS[name] * GATE_SCALE))
    static_rows, delta_rows = insert_workload(name, 0.2, total_rows=total_rows)
    payload = fitted_state_payload(
        name, static_rows, delete_strategy=delete_strategy
    )

    def run(workers: int):
        discoverer = clone_discoverer(payload)
        discoverer.workers = workers
        half = len(delta_rows) // 2 or 1
        reports = [discoverer.insert(delta_rows[:half]).report]
        reports.append(
            discoverer.delete(sorted(discoverer.relation.rids())[1::5]).report
        )
        reports.append(discoverer.insert(delta_rows[half:]).report)
        counters: dict = {}
        for report in reports:
            for key, value in report.metrics["counters"].items():
                if key.startswith(("parallel.", "evidence.")):
                    counters[key] = counters.get(key, 0) + value
        digest = hashlib.sha256(state_to_bytes(discoverer)).hexdigest()
        return digest, counters

    _, serial_counters = run(1)
    digest, counters = run(2)

    label = f"{name}/{delete_strategy}"
    expected = digests[label]
    if digest != expected:
        raise SystemExit(
            f"gate: FAIL — fork-pool state digest diverged from serial on "
            f"{label} (workers=2): {expected[:16]}… -> {digest[:16]}…"
        )
    def evidence_only(found: dict) -> dict:
        return {
            key: value
            for key, value in found.items()
            if key.startswith("evidence.")
        }

    if evidence_only(counters) != evidence_only(serial_counters):
        raise SystemExit(
            f"gate: FAIL — fork-pool evidence counters differ from serial on "
            f"{label} (workers=2): {evidence_only(serial_counters)} -> "
            f"{evidence_only(counters)}"
        )

    gated = {key: counters[key] for key in sorted(counters)}
    pool_label = f"{label} workers=2 fork-pool"
    record = {
        "workload": pool_label,
        "scale": GATE_SCALE,
        "digest": digest,
        "counters": {pool_label: gated},
    }
    write_record(out_dir, "pool_gate.json", record)
    print(
        f"gate: fork-pool digest OK — {label} at workers=2 matches serial "
        f"({digest[:16]}…) with identical evidence counters, "
        f"{len(gated)} pool/evidence counters snapshotted"
    )
    return record["counters"]


def _span_shape(name: str, children) -> tuple:
    """A span subtree as ``(name, sorted child shapes)``: equal shapes
    mean the same names under the same parents."""
    return (name, tuple(sorted(children)))


def _report_shape(span) -> tuple:
    return _span_shape(span.name, (_report_shape(c) for c in span.children))


def _record_shape(record: dict) -> tuple:
    return _span_shape(
        record["name"], (_record_shape(c) for c in record["children"])
    )


def _count_spans(span) -> int:
    return 1 + sum(_count_spans(child) for child in span.children)


def trace_overhead_check(out_dir: Path) -> dict:
    """Tracing must observe the engine, never change it.

    Runs one fixed maintenance workload both ways — each call under its
    own trace context bound to a flight recorder, and fully untraced — and
    demands byte-identical work counters and state digests.  The traced
    calls must also reach the recorder through the one span model only:
    each call's flight records form exactly that call's ``RunReport``
    span tree (the same names under the same parents, one record per
    span, rooted under the call's context), so a second recording path
    cannot come back unnoticed.  No committed baseline: the run is its
    own oracle (traced vs untraced).  The workload runs in
    ``TRACE_OVERHEAD_PAIRS`` pairs, untraced first in even pairs and
    traced first in odd ones, and every pair is checked.  Each pair's
    wall-clock ratio and their median are logged to
    ``trace_overhead.json`` under ``out_dir`` for the perf trajectory but
    never gated on (CI wall time is noise).
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    import time

    from repro.core.state_io import state_to_bytes
    from repro.observability import (
        FlightRecorder,
        TraceContext,
        build_span_tree,
        tracectx,
    )
    from _harness import (
        BASE_ROWS,
        clone_discoverer,
        fitted_state_payload,
        insert_workload,
    )

    name, delete_strategy = DIGEST_WORKLOADS[0]
    total_rows = max(40, int(BASE_ROWS[name] * GATE_SCALE))
    static_rows, delta_rows = insert_workload(name, 0.2, total_rows=total_rows)
    payload = fitted_state_payload(
        name, static_rows, delete_strategy=delete_strategy
    )

    def run(traced: bool):
        discoverer = clone_discoverer(payload)
        half = len(delta_rows) // 2 or 1
        calls = [
            lambda: discoverer.insert(delta_rows[:half]),
            lambda: discoverer.delete(sorted(discoverer.relation.rids())[1::5]),
            lambda: discoverer.insert(delta_rows[half:]),
        ]
        reports, contexts = [], []
        started = time.perf_counter()
        for call in calls:
            context = None
            if traced:
                context = TraceContext.mint(
                    recorder=FlightRecorder(max_spans=4096)
                )
            with tracectx.activate(context):
                reports.append(call().report)
            contexts.append(context)
        wall = time.perf_counter() - started
        counters = json.dumps(
            [report.metrics["counters"] for report in reports], sort_keys=True
        )
        digest = hashlib.sha256(state_to_bytes(discoverer)).hexdigest()
        return counters, digest, wall, list(zip(reports, contexts))

    pairs = []
    for index in range(TRACE_OVERHEAD_PAIRS):
        order = (True, False) if index % 2 else (False, True)
        runs = {traced: run(traced) for traced in order}
        untraced_counters, untraced_digest, untraced_wall, _ = runs[False]
        traced_counters, traced_digest, traced_wall, traced_calls = runs[True]
        if traced_counters != untraced_counters:
            raise SystemExit(
                "gate: FAIL — work counters differ with tracing enabled "
                f"({name}/{delete_strategy})"
            )
        if traced_digest != untraced_digest:
            raise SystemExit(
                "gate: FAIL — state digest differs with tracing enabled "
                f"({name}/{delete_strategy})"
            )
        n_records = 0
        for report, context in traced_calls:
            records = context.recorder.spans()
            roots = build_span_tree(records)
            if (
                len(records) != _count_spans(report.root)
                or len(roots) != 1
                or roots[0]["parent_id"] != context.span_id
                or _record_shape(roots[0]) != _report_shape(report.root)
            ):
                raise SystemExit(
                    f"gate: FAIL — the flight records of the traced "
                    f"{report.operation} ({len(records)} records, "
                    f"{len(roots)} roots) are not its RunReport span tree "
                    f"({_count_spans(report.root)} spans)"
                )
            n_records += len(records)
        pairs.append(
            {
                "traced_first": order[0],
                "untraced_wall_s": round(untraced_wall, 6),
                "traced_wall_s": round(traced_wall, 6),
                "ratio": round(
                    traced_wall / untraced_wall if untraced_wall else 1.0, 4
                ),
            }
        )
    ratios = sorted(pair["ratio"] for pair in pairs)
    report = {
        "workload": f"{name}/{delete_strategy}",
        "scale": GATE_SCALE,
        "counters_identical": True,
        "digest_identical": True,
        "records_match_reports": True,
        "pairs": pairs,
        "overhead_ratio": statistics.median(ratios),
    }
    write_record(out_dir, "trace_overhead.json", report)
    print(
        f"gate: trace overhead OK — counters and digest byte-identical in "
        f"{len(pairs)} pairs, {n_records} flight records form the "
        f"{len(traced_calls)} calls' span trees per traced run, wall ratio "
        f"median x{report['overhead_ratio']:.2f} "
        f"(pairs {', '.join(f'{ratio:.2f}' for ratio in ratios)}; "
        "logged, not gated)"
    )
    return report


def compare_counters(baseline: dict, current: dict, tolerance: float) -> list:
    problems = []
    for filename, labels in baseline.items():
        seen = current.get(filename, {})
        for label, expected in labels.items():
            actual = seen.get(label)
            if actual is None:
                problems.append(f"{filename}: record {label!r} disappeared")
                continue
            for counter, value in expected.items():
                found = actual.get(counter)
                if found is None:
                    problems.append(
                        f"{filename}: {label!r} lost counter {counter}"
                    )
                    continue
                bound = abs(value) * tolerance
                if abs(found - value) > bound:
                    kind = "regressed" if found > value else "drifted down"
                    problems.append(
                        f"{filename}: {label!r} {counter} {kind}: "
                        f"{value} -> {found} "
                        f"({(found - value) / value if value else found:+.1%},"
                        f" tolerance {tolerance:.1%})"
                    )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the committed baselines from this run",
    )
    parser.add_argument(
        "--skip-bench",
        action="store_true",
        help="compare the committed results/ files without re-running "
        "the benchmarks",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.02,
        help="relative counter tolerance (default 2%%)",
    )
    args = parser.parse_args(argv)

    out_dir = RESULTS_DIR if args.update else OUT_DIR
    if args.skip_bench:
        counters = collect_counters(RESULTS_DIR)
    else:
        run_benchmarks(out_dir)
        counters = collect_counters(out_dir)
    digests, deletes = compute_digests()
    counters["pool_gate.json"] = pool_gate_check(digests, out_dir)
    counters["dynei_delete_gate.json"] = dynei_delete_gate(deletes, out_dir)
    trace_overhead_check(out_dir)

    if args.update:
        BASELINE_PATH.parent.mkdir(exist_ok=True)
        BASELINE_PATH.write_text(
            json.dumps(
                {
                    "scale": GATE_SCALE,
                    "counters": counters,
                    "digests": digests,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        print(f"gate: baselines updated at {BASELINE_PATH}")
        return 0

    if not BASELINE_PATH.exists():
        print(
            f"gate: no baselines at {BASELINE_PATH}; "
            "run with --update to create them",
            file=sys.stderr,
        )
        return 2
    baseline = json.loads(BASELINE_PATH.read_text())
    if baseline.get("scale") != GATE_SCALE:
        print(
            f"gate: baselines recorded at scale {baseline.get('scale')} "
            f"but the gate is running at {GATE_SCALE}",
            file=sys.stderr,
        )
        return 2

    problems = compare_counters(
        baseline.get("counters", {}), counters, args.tolerance
    )
    for label, expected in baseline.get("digests", {}).items():
        found = digests.get(label)
        if found != expected:
            problems.append(
                f"state digest {label}: {expected[:16]}… -> "
                f"{(found or 'missing')[:16]}…"
            )

    if problems:
        print(f"gate: FAIL — {len(problems)} divergence(s):", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        print(
            "gate: if the change is intentional, refresh with "
            "`python benchmarks/bench_gate.py --update`",
            file=sys.stderr,
        )
        return 1
    n_counters = sum(
        len(values) for labels in counters.values() for values in labels.values()
    )
    print(
        f"gate: OK — {n_counters} counters and {len(digests)} state digests "
        "match the baselines"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
