"""Benchmark-owned entry point of the served process.

Fits a discoverer on the static rows, wraps it in a durable session,
serves it with :class:`~repro.service.server.DCService` under the default
:class:`~repro.service.config.ServiceConfig` and blocks until a client
posts ``/shutdown``.  The same entry point runs traced and untraced runs,
so the traced one can patch layers inside this process.

Usage (the client in ``served.py`` does this)::

    python3 dcbench/server.py --workdir DIR --trace 0|1

``DIR/static.json`` holds ``{"header": [...], "rows": [...]}``.  One line
``READY {json}`` on stdout reports the URL and set-up timings; after the
drain, ``DIR/server_report.json`` holds what the client checks and
reports.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))


def _served_hooks(hooks):
    """Serving-layer accounting the generic layer spans cannot give:
    queue wait per write request, rows per cycle, exact endpoint times
    and the user bytes a cycle made durable."""
    from repro.durability.session import DurableSession
    from repro.service import coalescer, server

    created = {}
    request_init = coalescer.WriteRequest.__init__
    apply_cycle = server.DCService._apply_cycle
    finish_request = server.DCService._finish_request
    session_insert = DurableSession.insert

    def init(self, op, payload, trace=None):
        request_init(self, op, payload, trace=trace)
        created[id(self)] = perf_counter()

    def cycle(self, requests):
        started = perf_counter()
        for request in requests:
            hooks["queue_wait_s"].append(started - created.pop(id(request), started))
        return apply_cycle(self, requests)

    def finish(self, method, endpoint, elapsed, trace_id):
        hooks["endpoint_s"].setdefault(endpoint, []).append(elapsed)
        return finish_request(self, method, endpoint, elapsed, trace_id)

    def insert(self, rows):
        rows = [list(row) for row in rows]
        hooks["user_bytes"] += sum(len(json.dumps(row)) for row in rows)
        hooks["cycle_rows"].append(len(rows))
        return session_insert(self, rows)

    coalescer.WriteRequest.__init__ = init
    server.DCService._apply_cycle = cycle
    server.DCService._finish_request = finish
    DurableSession.insert = insert


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = perf_counter()
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.path.insert(0, HERE)
    from repro.core.discoverer import DCDiscoverer
    from repro.durability import DurableSession
    from repro.relational.loader import relation_from_rows
    from repro.service import DCService, ServiceConfig

    from measure import SETUP_REPEATS, peak_rss_mb

    import_s = perf_counter() - started

    with open(os.path.join(args.workdir, "static.json"), encoding="utf-8") as handle:
        static = json.load(handle)
    fits, phases = [], []
    for _ in range(SETUP_REPEATS):
        fit_started = perf_counter()
        discoverer = DCDiscoverer(relation_from_rows(static["header"], [tuple(r) for r in static["rows"]]))
        phases.append(discoverer.fit().timings)
        fits.append(perf_counter() - fit_started)

    session_started = perf_counter()
    session = DurableSession.create(discoverer, os.path.join(args.workdir, "session"))
    session_s = perf_counter() - session_started

    # update_p50_ms of this workload: the service's maintenance call is
    # one write cycle (WAL, maintenance, snapshot publish), timed in
    # traced and untraced runs alike.
    cycle_s = []
    apply_cycle = DCService._apply_cycle

    def timed_cycle(self, requests):
        cycle_started = perf_counter()
        try:
            return apply_cycle(self, requests)
        finally:
            cycle_s.append(perf_counter() - cycle_started)

    DCService._apply_cycle = timed_cycle

    tracer = None
    hooks = {"queue_wait_s": [], "endpoint_s": {}, "user_bytes": 0, "cycle_rows": []}
    if args.trace:
        from tracing import Tracer

        tracer = Tracer().install()
        _served_hooks(hooks)

    start_started = perf_counter()
    service = DCService(session, ServiceConfig(port=0))
    service.start()
    start_s = perf_counter() - start_started
    counters_before = dict(service.instrumentation.metrics.counters)
    ready_at = perf_counter()
    print("READY " + json.dumps({
        "url": service.url,
        "import_s": import_s,
        "fit_s": fits,
        "fit_phases": {
            phase: statistics.median(timings[phase] for timings in phases)
            for phase in ("space", "evidence", "enumeration")
        },
        "session_s": session_s,
        "start_s": start_s,
        "setup_s": import_s + statistics.median(fits) + session_s + start_s,
    }), flush=True)

    service.serve_forever()
    service_end = perf_counter()

    relation = service.session.discoverer.relation
    counters = service.instrumentation.metrics.counter_delta(counters_before)
    report = {
        "peak_rss_mb": peak_rss_mb(),
        "rows": [[rid, list(relation.row(rid))] for rid in relation.rids()],
        "cycle_s": cycle_s,
        "counters": counters,
        "serve_s": service_end - ready_at,
    }
    if tracer is not None:
        tracer.uninstall()
        report["totals"] = tracer.totals(since=ready_at)
        report["hooks"] = hooks
        tracer.write(os.path.join(args.workdir, "spans.json"))
    with open(os.path.join(args.workdir, "server_report.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
