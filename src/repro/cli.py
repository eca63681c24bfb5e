"""Command-line interface for dynamic DC discovery on CSV data.

Subcommands mirror the 3DC life cycle:

- ``discover``  — static bootstrap on a CSV, print DCs, save the state;
- ``insert``    — load a state, insert rows from a CSV, print the changes;
- ``delete``    — load a state, delete rows by rid, print the changes;
- ``rank``      — load a state, print the top-k ranked DCs;
- ``verify``    — check a *fixed* set of DCs against a CSV with the
  near-linear verification kernel (docs/verification.md); exits 0 iff
  every constraint holds, 1 otherwise;
- ``stats``     — structural + pipeline statistics of a CSV or saved state;
- ``datasets``  — generate one of the synthetic evaluation datasets;
- ``session``   — durable sessions (``init``/``insert``/``delete``/
  ``recover``/``status``): every update batch is write-ahead logged and
  the state is checkpointed atomically every ``--checkpoint-every``
  batches, so a crash at any instant recovers without data loss
  (docs/durability.md);
- ``serve``     — long-running JSON-over-HTTP service around a durable
  session: concurrent writes are coalesced into batch-update cycles,
  reads (``/dcs``, ``/rank``, ``/verify``, ``/status``, ``/metrics``)
  and online violation checks (``/check``) are served lock-free from
  immutable snapshots, and SIGTERM drains + checkpoints
  (docs/service.md);
- ``doctor``    — one-shot diagnostics bundle: environment, metrics
  snapshot, recent traces, session/WAL status, and benchmark counters
  in one tarball/JSON (docs/observability.md);
- ``fleet``     — the fleet coordinator: probes every node, declares a
  dead primary after a suspicion window, and drives the fence → drain
  → promote → repoint failover sequence; ``--listen`` additionally
  serves the aggregated topology for ``FleetClient`` discovery
  (docs/fleet.md).

``discover``/``insert``/``delete`` accept ``--workers N`` to stripe
evidence construction over a fork pool and ``--backend
{auto,python,numpy}`` to pick the evidence-kernel backend (results are
identical for any combination; see docs/performance.md).

Observability flags (see docs/observability.md): ``--trace`` prints the
nested span tree and per-call metrics of the operation, ``--metrics-out``
writes the run report to a file (JSON, or Prometheus text when the path
ends in ``.prom``), and the global ``--log-level`` configures the
``repro`` logger hierarchy.

Example::

    repro-dc discover staff.csv --state staff.state.json --top 10
    repro-dc --log-level debug insert --state staff.state.json new_rows.csv
    repro-dc delete --state staff.state.json --rids 3 7 12 --trace
    repro-dc stats staff.csv --metrics-out staff.metrics.prom
"""

from __future__ import annotations

import argparse
import csv
import sys

from repro.core.discoverer import DCDiscoverer
from repro.core.state_io import load_state, save_state
from repro.durability import DurableSession
from repro.durability.session import DEFAULT_CHECKPOINT_EVERY
from repro.observability import configure_logging
from repro.observability.exporters import snapshot_to_prometheus
from repro.observability.logging import LEVELS
from repro.relational.loader import load_csv
from repro.workloads.datasets import dataset_names, generate_dataset


def _print_dcs(discoverer: DCDiscoverer, top: int) -> None:
    dcs = discoverer.dcs
    shown = dcs if top <= 0 else dcs[:top]
    for dc in shown:
        print(f"  {dc}")
    if 0 < top < len(dcs):
        print(f"  ... ({len(dcs) - top} more)")


def _emit_observability(args, result) -> None:
    """Handle ``--trace`` / ``--metrics-out`` for a result with a report."""
    report = result.report
    if report is None:
        return
    if getattr(args, "trace", False):
        print()
        print(report.format())
    path = getattr(args, "metrics_out", None)
    if path:
        if str(path).endswith(".prom"):
            text = snapshot_to_prometheus(report.metrics)
        else:
            text = report.to_json() + "\n"
        with open(path, "w") as handle:
            handle.write(text)
        print(f"metrics written to {path}")


def _cmd_discover(args) -> int:
    relation = load_csv(args.csv, null_policy=args.null_policy)
    discoverer = DCDiscoverer(
        relation,
        cross_column_ratio=args.cross_ratio,
        allow_cross_columns=not args.no_cross_columns,
        workers=args.workers,
        backend=args.backend,
    )
    result = discoverer.fit()
    print(result)
    _print_dcs(discoverer, args.top)
    _emit_observability(args, result)
    if args.state:
        save_state(discoverer, args.state)
        print(f"state saved to {args.state}")
    return 0


def _apply_execution_flags(discoverer, args) -> None:
    """Override a loaded discoverer's execution knobs from CLI flags
    (``None`` = keep what it already has; none of these are persisted)."""
    if args.workers is not None:
        discoverer.workers = args.workers
    if args.backend is not None:
        discoverer.backend = args.backend


def _cmd_insert(args) -> int:
    discoverer = load_state(args.state)
    _apply_execution_flags(discoverer, args)
    relation = load_csv(
        args.csv, schema=discoverer.relation.schema, null_policy=args.null_policy
    )
    result = discoverer.insert(relation.rows())
    print(result)
    _print_dcs(discoverer, args.top)
    _emit_observability(args, result)
    save_state(discoverer, args.state)
    print(f"state saved to {args.state}")
    return 0


def _cmd_delete(args) -> int:
    discoverer = load_state(args.state)
    _apply_execution_flags(discoverer, args)
    result = discoverer.delete(args.rids)
    print(result)
    _print_dcs(discoverer, args.top)
    _emit_observability(args, result)
    save_state(discoverer, args.state)
    print(f"state saved to {args.state}")
    return 0


def _collect_verify_constraints(dcs, dcs_file) -> list:
    """Merge ``--dc`` strings and the lines of ``--dcs-file``.

    The file format is one DC per line; blank lines and ``#`` comments
    are skipped, so a DC list exported from ``/dcs`` can be annotated.
    """
    constraints = list(dcs or [])
    if dcs_file:
        with open(dcs_file) as handle:
            for line in handle:
                line = line.strip()
                if line and not line.startswith("#"):
                    constraints.append(line)
    return constraints


def _print_verification_report(report: dict) -> None:
    for entry in report["constraints"]:
        if entry["holds"]:
            print(f"  holds     {entry['dc']}")
            continue
        print(f"  VIOLATED  {entry['dc']}  ({entry['n_violations']} pairs)")
        for first, second in entry["sample_pairs"]:
            print(f"            t{first} ⋈ t{second}")
    print(
        f"{report['n_constraints'] - report['n_violated']}"
        f"/{report['n_constraints']} constraints hold on "
        f"{report['n_rows']} rows "
        f"({report['total_violations']} violating pairs)"
    )


def _cmd_verify(args) -> int:
    constraints = _collect_verify_constraints(args.dc, args.dcs_file)
    if not constraints:
        print("verify: pass --dc and/or --dcs-file", file=sys.stderr)
        return 2
    relation = load_csv(args.csv, null_policy=args.null_policy)
    discoverer = DCDiscoverer(
        relation,
        mode="verify",
        constraints=constraints,
        cross_column_ratio=args.cross_ratio,
        allow_cross_columns=not args.no_cross_columns,
    )
    try:
        result = discoverer.fit()
    except ValueError as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return 2
    print(result)
    report = discoverer.verification_report(sample=args.sample)
    _print_verification_report(report)
    _emit_observability(args, result)
    if args.state:
        save_state(discoverer, args.state)
        print(f"state saved to {args.state}")
    return 0 if report["n_violated"] == 0 else 1


def _cmd_rank(args) -> int:
    discoverer = load_state(args.state)
    for entry in discoverer.rank(top_k=args.top):
        print(
            f"  score={entry.score:.3f} "
            f"(succ={entry.succinctness:.2f}, cov={entry.coverage:.2f})  "
            f"{entry.dc}"
        )
    return 0


def _print_state_stats(discoverer: DCDiscoverer) -> None:
    relation = discoverer.relation
    state = discoverer.engine_state
    print(f"rows                 {len(relation)}")
    print(f"columns              {len(relation.schema)}")
    print(f"predicates           {discoverer.space.n_bits}")
    print(f"predicate groups     {len(discoverer.space.groups)}")
    print(f"distinct evidences   {len(state.evidence)}")
    print(f"evidence pairs       {state.evidence.total_pairs()}")
    print(f"minimal DCs          {len(discoverer.dc_masks)}")
    print(f"canonical DCs        {len(discoverer.canonical_dcs)}")
    if state.tuple_index is not None:
        stats = state.tuple_index.stats()
        print(
            f"tuple index          {stats['tuples']} tuples, "
            f"{stats['owned_pairs']} owned pairs, "
            f"{stats['evidence_entries']} evidence entries"
        )
    print("column indexes:")
    for position, column in enumerate(relation.schema):
        equality = len(state.indexes.equality[position])
        range_index = state.indexes.ranges[position]
        extra = f", {len(range_index)} range values" if range_index else ""
        print(f"  {column.name:20s} {equality} equality entries{extra}")


def _cmd_stats(args) -> int:
    if bool(args.csv) == bool(args.state):
        print("stats: pass a CSV or --state, not both/neither", file=sys.stderr)
        return 2
    if args.state:
        discoverer = load_state(args.state)
        _print_state_stats(discoverer)
        return 0
    relation = load_csv(args.csv, null_policy=args.null_policy)
    discoverer = DCDiscoverer(relation, cross_column_ratio=args.cross_ratio)
    result = discoverer.fit()
    print(result)
    print()
    _print_state_stats(discoverer)
    print()
    print(result.report.format())
    _emit_observability(args, result)
    return 0


def _cmd_profile(args) -> int:
    from repro.relational.profiling import profile_relation

    relation = load_csv(args.csv, null_policy=args.null_policy)
    profile = profile_relation(relation, cross_column_ratio=args.cross_ratio)
    print(profile.summary())
    print("\nper-column pair statistics:")
    for column in profile.columns:
        flag = " (key-like)" if column.is_key_like else ""
        print(
            f"  {column.name:20s} {column.type_name:7s} "
            f"distinct={column.n_distinct:6d} top={column.top_frequency:.2f} "
            f"p_eq={column.p_equal:.3f} H={column.entropy_bits:.2f}b{flag}"
        )
    return 0


def _cmd_datasets(args) -> int:
    if args.name is None:
        for name in dataset_names():
            print(f"  {name}")
        return 0
    relation = generate_dataset(args.name, args.rows, seed=args.seed)
    writer = csv.writer(sys.stdout if args.out is None else open(args.out, "w", newline=""))
    writer.writerow(relation.schema.names)
    for row in relation.rows():
        writer.writerow(row)
    if args.out:
        print(f"wrote {len(relation)} rows to {args.out}", file=sys.stderr)
    return 0


def _print_session_status(session: DurableSession) -> None:
    status = session.status()
    print(f"session directory    {status['directory']}")
    print(f"rows                 {status['rows']}")
    print(f"minimal DCs          {status['dcs']}")
    print(f"distinct evidences   {status['evidence_distinct']}")
    print(f"next WAL seq         {status['next_seq']}")
    print(f"checkpointed seq     {status['checkpoint_seq']}")
    print(
        f"pending WAL records  {status['pending_wal_records']} "
        f"({status['wal_bytes']} bytes)"
    )
    print(
        f"checkpoint policy    every {status['checkpoint_every']} batches, "
        f"retain {status['retain']}"
    )
    print(f"checkpoints on disk  {', '.join(status['checkpoints']) or '(none)'}")


def _cmd_session_init(args) -> int:
    relation = load_csv(args.csv, null_policy=args.null_policy)
    discoverer = DCDiscoverer(
        relation,
        cross_column_ratio=args.cross_ratio,
        allow_cross_columns=not args.no_cross_columns,
        workers=args.workers,
        backend=args.backend,
    )
    result = discoverer.fit()
    print(result)
    _print_dcs(discoverer, args.top)
    _emit_observability(args, result)
    with DurableSession.create(
        discoverer,
        args.dir,
        checkpoint_every=args.checkpoint_every,
        retain=args.retain,
    ) as session:
        print(f"durable session initialized in {session.directory}")
    return 0


def _cmd_session_insert(args) -> int:
    with DurableSession.recover(args.dir) as session:
        relation = load_csv(
            args.csv,
            schema=session.discoverer.relation.schema,
            null_policy=args.null_policy,
        )
        result = session.insert(relation.rows())
        print(result)
        _print_dcs(session.discoverer, args.top)
        _emit_observability(args, result)
    return 0


def _cmd_session_delete(args) -> int:
    with DurableSession.recover(args.dir) as session:
        result = session.delete(args.rids)
        print(result)
        _print_dcs(session.discoverer, args.top)
        _emit_observability(args, result)
    return 0


def _cmd_session_recover(args) -> int:
    with DurableSession.recover(args.dir) as session:
        print(
            f"recovered session from {session.directory} "
            f"(replayed {session.replayed_records} WAL records)"
        )
        if args.checkpoint:
            path = session.checkpoint()
            print(f"checkpoint written to {path}")
        _print_session_status(session)
    return 0


def _cmd_session_status(args) -> int:
    with DurableSession.recover(args.dir) as session:
        _print_session_status(session)
        path = getattr(args, "metrics_out", None)
        if path:
            session.export_gauges()
            snapshot = session.discoverer.instrumentation.metrics.snapshot()
            if str(path).endswith(".prom"):
                text = snapshot_to_prometheus(snapshot)
            else:
                from repro.observability import snapshot_to_json

                text = snapshot_to_json(snapshot) + "\n"
            with open(path, "w") as handle:
                handle.write(text)
            print(f"metrics written to {path}")
    return 0


def _cmd_doctor(args) -> int:
    from repro.doctor import build_bundle, write_bundle

    bundle = build_bundle(
        session_dir=args.dir,
        url=args.url,
        results_dir=args.results,
        metrics_path=args.metrics,
    )
    path = write_bundle(bundle, args.out)
    session = bundle["session"]
    service = bundle["service"]
    print(f"doctor bundle written to {path}")
    if session.get("directory"):
        wal = session.get("wal", {})
        print(
            f"  session: {session['directory']} "
            f"({wal.get('records', 0)} WAL records, "
            f"{len(session.get('checkpoints', []))} checkpoints)"
        )
    if service.get("url"):
        status = service.get("status", {})
        state = "unreachable" if "error" in status else "reachable"
        print(f"  service: {service['url']} ({state})")
    files = bundle["results"].get("files", {})
    if files:
        print(f"  results: {len(files)} benchmark file(s)")
    return 0


def _cmd_serve(args) -> int:
    import os

    from repro.service import DCService, ServiceConfig

    if args.follow:
        return _serve_follower(args)
    if os.path.exists(os.path.join(args.dir, "session.json")):
        if args.csv:
            print(
                f"serve: session already exists in {args.dir}; "
                f"omit the CSV to serve it",
                file=sys.stderr,
            )
            return 2
        if args.verify_dcs:
            print(
                f"serve: session already exists in {args.dir}; its mode is "
                f"persisted — omit --verify-dcs to serve it",
                file=sys.stderr,
            )
            return 2
        session = DurableSession.recover(args.dir)
        print(
            f"recovered session from {args.dir} "
            f"(replayed {session.replayed_records} WAL records)"
        )
        _apply_execution_flags(session.discoverer, args)
    else:
        if not args.csv:
            print(
                f"serve: no session in {args.dir}; pass a CSV to bootstrap one",
                file=sys.stderr,
            )
            return 2
        relation = load_csv(args.csv, null_policy=args.null_policy)
        if args.verify_dcs:
            constraints = _collect_verify_constraints([], args.verify_dcs)
            if not constraints:
                print(
                    f"serve: {args.verify_dcs} lists no DCs", file=sys.stderr
                )
                return 2
            discoverer = DCDiscoverer(
                relation,
                mode="verify",
                constraints=constraints,
                cross_column_ratio=args.cross_ratio,
            )
        else:
            discoverer = DCDiscoverer(
                relation,
                cross_column_ratio=args.cross_ratio,
                workers=args.workers or 1,
                backend=args.backend or "auto",
            )
        result = discoverer.fit()
        print(result)
        session = DurableSession.create(
            discoverer,
            args.dir,
            checkpoint_every=args.checkpoint_every,
            retain=args.retain,
        )
        print(f"durable session initialized in {session.directory}")
    config = _service_config(args)
    service = DCService(session, config)
    service.install_signal_handlers()
    service.start()
    role = "primary" if args.replicate_listen else "standalone"
    print(f"serving on {service.url} ({role})", flush=True)
    service.serve_forever()
    print(
        f"drained and stopped after {service.commits} commits "
        f"(state in {session.directory})"
    )
    return 0


def _service_config(args):
    from repro.service import ServiceConfig

    return ServiceConfig(
        host=args.host,
        port=args.port,
        queue_depth=args.queue_depth,
        batch_window_ms=args.batch_window_ms,
        request_timeout_s=args.request_timeout,
        slow_trace_threshold_s=args.slow_trace_threshold,
        metrics_out=args.metrics_out,
        verification_limit=args.verify_limit,
        replicate_listen=args.replicate_listen,
        min_seq_wait_s=args.min_seq_wait,
    )


def _serve_follower(args) -> int:
    from repro.replication import FollowerService, FollowerSession, HTTPSource

    if args.csv:
        print(
            "serve: --follow replicates an existing primary; "
            "a CSV cannot bootstrap a follower",
            file=sys.stderr,
        )
        return 2
    if args.verify_dcs:
        print(
            "serve: --verify-dcs applies to the primary; followers "
            "inherit its mode through the replicated state",
            file=sys.stderr,
        )
        return 2
    source = HTTPSource(args.follow)
    follower = FollowerSession.bootstrap(
        args.dir,
        source,
        checkpoint_every=args.checkpoint_every,
        retain=args.retain,
        primary_url=args.follow,
    )
    if follower.session.replayed_records:
        print(
            f"resumed follower in {args.dir} (replayed "
            f"{follower.session.replayed_records} WAL records)"
        )
    else:
        print(
            f"follower in {args.dir} at seq {follower.last_applied_seq}, "
            f"tailing {args.follow}"
        )
    service = FollowerService(
        follower, _service_config(args), primary_url=args.follow
    )
    service.install_signal_handlers()
    service.start()
    print(f"serving reads on {service.url} (follower)", flush=True)
    service.serve_forever()
    print(
        f"follower stopped at seq {follower.session.last_applied_seq} "
        f"as {service.role} (state in {follower.session.directory})"
    )
    return 0


def _cmd_fleet(args) -> int:
    import json
    import signal
    import threading

    from repro.fleet import FleetMonitor, HTTPNode
    from repro.fleet.monitor import CoordinatorServer

    monitor = FleetMonitor(
        [HTTPNode(url, timeout=args.node_timeout) for url in args.nodes],
        suspicion_s=args.suspicion,
        drain_s=args.drain,
    )
    server = None
    if args.listen:
        server = CoordinatorServer(
            monitor, host=args.listen_host, port=args.listen_port
        )
        server.start()
        print(f"fleet coordinator on {server.url}", flush=True)
    try:
        if args.once:
            monitor.step()
            print(
                json.dumps(monitor.topology_payload(), indent=2, sort_keys=True)
            )
            return 0
        stop = threading.Event()

        def _request_stop(signum, frame):
            stop.set()

        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(signum, _request_stop)
        print(
            f"fleet monitor watching {len(monitor.nodes)} node(s) "
            f"(suspicion {args.suspicion:.1f}s, probe every "
            f"{args.interval:.1f}s)",
            flush=True,
        )
        monitor.run(interval_s=args.interval, stop=stop)
        if monitor.last_failover is not None:
            print(json.dumps(monitor.last_failover, indent=2, sort_keys=True))
        print(
            f"fleet monitor stopped after {monitor.probes_total} probes, "
            f"{monitor.failovers_total} failover(s)"
        )
        return 0
    finally:
        if server is not None:
            server.close()


def _add_workers_flag(parser, default) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=default,
        metavar="N",
        help="evidence-construction worker processes (1 = serial, "
        "0 = one per CPU; results are identical for any value)",
    )


def _add_backend_flag(parser, default) -> None:
    from repro.evidence.kernels import BACKENDS

    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default=default,
        help="evidence-kernel backend (auto = NumPy-vectorized when "
        "available, pure Python otherwise; results are identical for "
        "any choice)",
    )


def _add_observability_flags(parser) -> None:
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print the operation's nested span tree and metrics",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the run report (JSON, or Prometheus text for *.prom)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dc",
        description="3DC: dynamic denial-constraint discovery",
    )
    parser.add_argument(
        "--log-level",
        choices=sorted(LEVELS),
        default="warning",
        help="verbosity of the repro.* logger hierarchy",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discover", help="static discovery on a CSV")
    p.add_argument("csv", help="input CSV file (with header)")
    p.add_argument("--state", help="path to save the 3DC state JSON")
    p.add_argument("--top", type=int, default=20, help="DCs to print (0 = all)")
    p.add_argument("--cross-ratio", type=float, default=0.3)
    p.add_argument("--no-cross-columns", action="store_true")
    p.add_argument("--null-policy", choices=["reject", "drop", "fill"], default="reject")
    _add_workers_flag(p, default=1)
    _add_backend_flag(p, default="auto")
    _add_observability_flags(p)
    p.set_defaults(func=_cmd_discover)

    p = sub.add_parser("insert", help="insert rows from a CSV into a saved state")
    p.add_argument("csv", help="CSV of rows to insert (same header)")
    p.add_argument("--state", required=True)
    p.add_argument("--top", type=int, default=20)
    p.add_argument("--null-policy", choices=["reject", "drop", "fill"], default="reject")
    # None = keep the loaded discoverer's worker count / backend.
    _add_workers_flag(p, default=None)
    _add_backend_flag(p, default=None)
    _add_observability_flags(p)
    p.set_defaults(func=_cmd_insert)

    p = sub.add_parser("delete", help="delete rows (by rid) from a saved state")
    p.add_argument("--state", required=True)
    p.add_argument("--rids", type=int, nargs="+", required=True)
    p.add_argument("--top", type=int, default=20)
    _add_workers_flag(p, default=None)
    _add_backend_flag(p, default=None)
    _add_observability_flags(p)
    p.set_defaults(func=_cmd_delete)

    p = sub.add_parser(
        "verify",
        help="check a fixed set of DCs against a CSV "
        "(near-linear verification kernel; exit 0 iff all hold)",
    )
    p.add_argument("csv", help="input CSV file (with header)")
    p.add_argument(
        "--dc",
        action="append",
        metavar="DC",
        help="a DC to check, e.g. \"!(t.city = t'.city & t.state != "
        "t'.state)\" (repeatable)",
    )
    p.add_argument(
        "--dcs-file",
        metavar="PATH",
        help="file with one DC per line (# comments and blanks skipped)",
    )
    p.add_argument(
        "--sample",
        type=int,
        default=10,
        metavar="N",
        help="violating pairs printed per violated DC",
    )
    p.add_argument(
        "--state",
        metavar="PATH",
        help="save the verify-mode state for incremental maintenance "
        "(insert/delete/session/serve keep the verdicts current)",
    )
    p.add_argument(
        "--cross-ratio",
        type=float,
        default=0.0,
        help="shared-value threshold for cross-column predicates "
        "(default 0.0: widest space, so any parseable DC is in scope)",
    )
    p.add_argument("--no-cross-columns", action="store_true")
    p.add_argument("--null-policy", choices=["reject", "drop", "fill"], default="reject")
    _add_observability_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("rank", help="rank the DCs of a saved state")
    p.add_argument("--state", required=True)
    p.add_argument("--top", type=int, default=20)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser(
        "stats",
        help="structural + pipeline statistics of a CSV or a saved state",
    )
    p.add_argument("csv", nargs="?", help="CSV to fit and instrument")
    p.add_argument("--state", help="inspect a saved state instead")
    p.add_argument("--cross-ratio", type=float, default=0.3)
    p.add_argument("--null-policy", choices=["reject", "drop", "fill"], default="reject")
    _add_observability_flags(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser(
        "profile", help="evidence-entropy profile of a CSV (discovery feasibility)"
    )
    p.add_argument("csv")
    p.add_argument("--cross-ratio", type=float, default=0.3)
    p.add_argument("--null-policy", choices=["reject", "drop", "fill"], default="reject")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "session",
        help="durable sessions: WAL + atomic checkpoints + crash recovery",
    )
    session_sub = p.add_subparsers(dest="session_command", required=True)

    sp = session_sub.add_parser("init", help="discover a CSV into a new session")
    sp.add_argument("csv", help="input CSV file (with header)")
    sp.add_argument("--dir", required=True, help="session directory to create")
    sp.add_argument(
        "--checkpoint-every",
        type=int,
        default=DEFAULT_CHECKPOINT_EVERY,
        metavar="N",
        help="checkpoint after every N update batches",
    )
    sp.add_argument(
        "--retain", type=int, default=3, help="checkpoints kept on disk"
    )
    sp.add_argument("--top", type=int, default=20)
    sp.add_argument("--cross-ratio", type=float, default=0.3)
    sp.add_argument("--no-cross-columns", action="store_true")
    sp.add_argument("--null-policy", choices=["reject", "drop", "fill"], default="reject")
    _add_workers_flag(sp, default=1)
    _add_backend_flag(sp, default="auto")
    _add_observability_flags(sp)
    sp.set_defaults(func=_cmd_session_init)

    sp = session_sub.add_parser("insert", help="durably insert rows from a CSV")
    sp.add_argument("dir", help="session directory")
    sp.add_argument("csv", help="CSV of rows to insert (same header)")
    sp.add_argument("--top", type=int, default=20)
    sp.add_argument("--null-policy", choices=["reject", "drop", "fill"], default="reject")
    _add_observability_flags(sp)
    sp.set_defaults(func=_cmd_session_insert)

    sp = session_sub.add_parser("delete", help="durably delete rows by rid")
    sp.add_argument("dir", help="session directory")
    sp.add_argument("--rids", type=int, nargs="+", required=True)
    sp.add_argument("--top", type=int, default=20)
    _add_observability_flags(sp)
    sp.set_defaults(func=_cmd_session_delete)

    sp = session_sub.add_parser(
        "recover", help="recover after a crash (checkpoint + WAL replay)"
    )
    sp.add_argument("dir", help="session directory")
    sp.add_argument(
        "--checkpoint",
        action="store_true",
        help="write a fresh checkpoint after recovery",
    )
    sp.set_defaults(func=_cmd_session_recover)

    sp = session_sub.add_parser("status", help="inspect a session directory")
    sp.add_argument("dir", help="session directory")
    sp.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the session's gauges (JSON, or Prometheus text for "
        "*.prom) — the same stream `repro-dc serve` exports at /metrics",
    )
    sp.set_defaults(func=_cmd_session_status)

    p = sub.add_parser(
        "serve",
        help="serve a durable session over JSON/HTTP "
        "(coalesced writes, snapshot reads, online violation checks)",
    )
    p.add_argument(
        "csv",
        nargs="?",
        help="CSV to bootstrap a fresh session (omit to serve an existing "
        "session directory)",
    )
    p.add_argument("--dir", required=True, help="session directory")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=8334,
        help="listen port (0 = pick an ephemeral port)",
    )
    p.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        metavar="N",
        help="bounded write-queue capacity (full queue answers HTTP 429)",
    )
    p.add_argument(
        "--batch-window-ms",
        type=float,
        default=5.0,
        metavar="MS",
        help="how long the writer lingers coalescing concurrent writes "
        "into one batch (0 = merge only what already queued)",
    )
    p.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        metavar="S",
        help="per-write commit wait before answering 503",
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=DEFAULT_CHECKPOINT_EVERY,
        metavar="N",
        help="checkpoint after every N applied batches (new sessions)",
    )
    p.add_argument(
        "--retain", type=int, default=3, help="checkpoints kept on disk"
    )
    p.add_argument("--cross-ratio", type=float, default=0.3)
    p.add_argument(
        "--null-policy", choices=["reject", "drop", "fill"], default="reject"
    )
    p.add_argument(
        "--verify-dcs",
        metavar="PATH",
        help="bootstrap a verify-mode session tracking the DCs listed in "
        "PATH (one per line) instead of discovering; GET /verify reports "
        "their verdicts",
    )
    p.add_argument(
        "--verify-limit",
        type=int,
        default=None,
        metavar="N",
        help="default per-DC violation cap for GET /verify "
        "(unset = count exactly)",
    )
    p.add_argument(
        "--slow-trace-threshold",
        type=float,
        default=1.0,
        metavar="S",
        help="spans at least this long are kept in the flight recorder's "
        "slow ring (served at GET /debug/trace?slow=1)",
    )
    p.add_argument(
        "--replicate-listen",
        action="store_true",
        help="serve the WAL frame feed (GET /replication/frames and "
        "/replication/checkpoint) so followers can tail this node",
    )
    p.add_argument(
        "--follow",
        metavar="URL",
        help="run as a read-only follower of the primary at URL: "
        "bootstrap (or resume) a replica in --dir from its latest "
        "checkpoint, tail its WAL, serve reads locally, answer writes "
        "with 421 + the primary URL (POST /promote takes over)",
    )
    p.add_argument(
        "--min-seq-wait",
        type=float,
        default=5.0,
        metavar="S",
        help="how long a min_seq-bounded read may wait for a fresh "
        "enough snapshot before answering 409",
    )
    p.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write a final JSON metrics snapshot here on shutdown, after "
        "the SIGTERM drain (the last cycle's counters included)",
    )
    _add_workers_flag(p, default=None)
    _add_backend_flag(p, default=None)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "doctor",
        help="assemble a diagnostics bundle (environment, metrics, recent "
        "traces, session/WAL status, bench counters) into one artifact",
    )
    p.add_argument(
        "--dir", help="session directory to inspect (read-only)"
    )
    p.add_argument(
        "--url", help="base URL of a live service to query (best-effort)"
    )
    p.add_argument(
        "--results",
        help="benchmark results directory whose *.json files to include",
    )
    p.add_argument(
        "--metrics",
        metavar="PATH",
        help="a previously exported JSON metrics snapshot to include",
    )
    p.add_argument(
        "--out",
        default="doctor-bundle.tar.gz",
        help="output path: *.json for plain JSON, anything else is a "
        "tar.gz containing bundle.json (default: %(default)s)",
    )
    p.set_defaults(func=_cmd_doctor)

    p = sub.add_parser(
        "fleet",
        help="run the fleet coordinator: probe node /topology endpoints, "
        "fail over automatically (fence, drain, promote, repoint), and "
        "optionally serve the aggregated topology to FleetClients",
    )
    p.add_argument(
        "nodes",
        nargs="+",
        metavar="URL",
        help="base URLs of every node in the fleet (primary + followers)",
    )
    p.add_argument(
        "--suspicion",
        type=float,
        default=2.0,
        metavar="S",
        help="how long the primary must be unreachable before failover "
        "(default: %(default)s)",
    )
    p.add_argument(
        "--drain",
        type=float,
        default=2.0,
        metavar="S",
        help="bounded wait for the candidate to drain the fenced "
        "primary's tail before promotion (default: %(default)s)",
    )
    p.add_argument(
        "--interval",
        type=float,
        default=0.5,
        metavar="S",
        help="probe interval (default: %(default)s)",
    )
    p.add_argument(
        "--node-timeout",
        type=float,
        default=5.0,
        metavar="S",
        help="per-node HTTP timeout for probes and failover commands",
    )
    p.add_argument(
        "--once",
        action="store_true",
        help="probe (and fail over if warranted) exactly once, print the "
        "topology JSON, and exit",
    )
    p.add_argument(
        "--listen",
        action="store_true",
        help="serve the aggregated topology over HTTP (GET /topology) "
        "for FleetClient discovery",
    )
    p.add_argument("--listen-host", default="127.0.0.1")
    p.add_argument(
        "--listen-port",
        type=int,
        default=0,
        help="coordinator port (0 = pick an ephemeral port)",
    )
    p.set_defaults(func=_cmd_fleet)

    p = sub.add_parser("datasets", help="list or generate synthetic datasets")
    p.add_argument("name", nargs="?", help="dataset name (omit to list)")
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=_cmd_datasets)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(args.log_level)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
