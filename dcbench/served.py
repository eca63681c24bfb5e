"""The ``served_writes`` workload: an open-loop client against DCService.

The server runs in its own process (``server.py``).  This process drives
it over two persistent HTTP connections on a seeded schedule:

- the write lane sends single-row inserts; rows that come due while a
  write is in flight wait in the client's backlog and go out together as
  the next request;
- the read lane sends one ``POST /check`` of a candidate row per due
  read, queued the same way.

Latency is timed from each row's (or read's) due time, so a stall shows
up in every request it delays.  A generator thread releases work at its
due time and records how late it ran.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter, sleep

from measure import Report, median, percentile, tail_percentile
from oracle import static_oracle, static_space

HERE = os.path.dirname(os.path.abspath(__file__))

#: Seconds a single request may take before it counts as failed.
REQUEST_TIMEOUT_S = 30.0
#: Seconds the server may take to become ready (three fits + session).
READY_TIMEOUT_S = 150.0


class Lane(threading.Thread):
    """One persistent connection serving one kind of request."""

    def __init__(self, url, kind, rows, work, t0):
        super().__init__(name=f"lane-{kind}", daemon=True)
        host, port = url.split("//", 1)[1].split(":")
        self.address = (host, int(port))
        self.kind = kind
        self.rows = rows
        self.work = work
        self.t0 = t0
        #: (due offset, ack offset) per completed item.
        self.latency_s = []
        #: Send-to-response seconds per request.
        self.request_s = []
        #: Items per request at send time (the client backlog).
        self.backlog = []
        self.acked = []  # (row index, rid)
        #: Unique and total index probes reported by ``POST /check``.
        self.probes = [0, 0]
        self.failed = 0
        self.errors = []
        self.last_ack = t0

    def _post(self, connection, path, body):
        payload = json.dumps(body).encode("utf-8")
        connection.request("POST", path, body=payload,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"{}")

    def run(self):
        # http.client reopens the connection by itself after an error.
        connection = http.client.HTTPConnection(*self.address, timeout=REQUEST_TIMEOUT_S)
        done = False
        try:
            while not done:
                items = [self.work.get()]
                if self.kind == "write":
                    while True:  # everything that came due meanwhile
                        try:
                            items.append(self.work.get_nowait())
                        except queue.Empty:
                            break
                if items[-1] is None:  # the generator's end marker
                    items.pop()
                    done = True
                while items:
                    batch = items if self.kind == "write" else items[:1]
                    items = items[len(batch):]
                    self._send(connection, batch)
        finally:
            connection.close()

    def _send(self, connection, batch):
        self.backlog.append(len(batch) + self.work.qsize())
        if self.kind == "write":
            path, body = "/insert", {"rows": [list(self.rows[i]) for i, _ in batch]}
        else:
            path, body = "/check", {"row": list(self.rows[batch[0][0]])}
        sent = perf_counter()
        try:
            status, document = self._post(connection, path, body)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            connection.close()
            status, document = None, {"message": repr(exc)}
        now = perf_counter()
        self.request_s.append(now - sent)
        if status != 200:
            # 429, 503, timeouts and connection errors all count here.
            self.failed += len(batch)
            self.errors.append(f"{path}: {status} {document.get('message', '')}")
            return
        self.last_ack = now
        for position, (index, due) in enumerate(batch):
            self.latency_s.append(now - self.t0 - due)
            if self.kind == "write":
                self.acked.append((index, document["rids"][position]))
        if self.kind == "read":
            self.probes[0] += document["probes"]["unique"]
            self.probes[1] += document["probes"]["lookups"]


def _generate(lanes, schedule, t0, late_s):
    """Release each due item to its lane at its due time."""
    for due, kind, index in schedule:
        delay = t0 + due - perf_counter()
        if delay > 0:
            sleep(delay)
        late_s.append(perf_counter() - t0 - due)
        lanes[kind].work.put((index, due))
    for lane in lanes.values():
        lane.work.put(None)


def start_server(workdir, inputs, trace):
    """Spawn the server; returns ``(process, ready info, spawn-to-ready s)``."""
    os.makedirs(workdir, exist_ok=True)
    with open(os.path.join(workdir, "static.json"), "w", encoding="utf-8") as handle:
        json.dump({"header": list(inputs.header), "rows": [list(r) for r in inputs.static]}, handle)
    log = open(os.path.join(workdir, "server.log"), "wb")
    spawned = perf_counter()
    process = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "server.py"), "--workdir", workdir,
         "--trace", str(int(trace))],
        stdout=subprocess.PIPE, stderr=log,
    )
    log.close()
    ready = {}
    waiter = threading.Thread(target=lambda: ready.update(_read_ready(process)), daemon=True)
    waiter.start()
    waiter.join(READY_TIMEOUT_S)
    if "url" not in ready:
        stop_server(process)
        raise RuntimeError(f"server did not become ready; see {workdir}/server.log")
    return process, ready, perf_counter() - spawned


def _read_ready(process):
    for line in process.stdout:
        if line.startswith(b"READY "):
            return json.loads(line[len(b"READY "):])
    return {}


def stop_server(process):
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(60)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    if process.stdout is not None:
        process.stdout.close()


def drive(inputs, workdir, seconds, trace):
    """One server lifetime: start, drive for ``seconds``, drain, check.

    Returns ``(pass dict, problem or None)``.
    """
    process, ready, spawn_s = start_server(workdir, inputs, trace)
    try:
        schedule = sorted(
            [(due, "write", i) for i, due in enumerate(inputs.write_due) if due < seconds]
            + [(due, "read", i) for i, due in enumerate(inputs.read_due) if due < seconds]
        )
        t0 = perf_counter() + 0.2
        lanes = {
            "write": Lane(ready["url"], "write", inputs.stream, queue.Queue(), t0),
            "read": Lane(ready["url"], "read", inputs.read_rows, queue.Queue(), t0),
        }
        for lane in lanes.values():
            lane.start()
        late_s = []
        _generate(lanes, schedule, t0, late_s)
        for lane in lanes.values():
            lane.join(REQUEST_TIMEOUT_S * 2)
            if lane.is_alive():
                raise RuntimeError(f"{lane.name} did not finish")
        connection = http.client.HTTPConnection(*lanes["write"].address, timeout=REQUEST_TIMEOUT_S)
        try:
            connection.request("GET", "/dcs")
            dcs = json.loads(connection.getresponse().read())
            connection.request("POST", "/shutdown", body=b"{}",
                               headers={"Content-Type": "application/json"})
            connection.getresponse().read()
        finally:
            connection.close()
        process.wait(90)
    finally:
        stop_server(process)
    with open(os.path.join(workdir, "server_report.json"), encoding="utf-8") as handle:
        server = json.load(handle)
    result = {
        "ready": ready, "spawn_s": spawn_s, "lanes": lanes, "late_s": late_s,
        "server": server, "t0": t0, "dcs": dcs,
    }
    return result, _check(inputs, lanes["write"], server, dcs)


def _check(inputs, writes, server, dcs):
    """Every acknowledged row is present and Σ equals the static oracle."""
    live = {rid: tuple(row) for rid, row in server["rows"]}
    acked_rows = []
    for index, rid in writes.acked:
        row = tuple(inputs.stream[index])
        if live.get(rid) != row:
            return f"acknowledged row {index} (rid {rid}) is missing or altered"
        acked_rows.append(row)
    if len(live) != len(inputs.static) + len(acked_rows):
        return f"{len(live)} live rows, expected {len(inputs.static)} static + {len(acked_rows)} acknowledged"
    space = static_space(inputs.header, inputs.static)
    _, sigma = static_oracle(inputs.header, list(inputs.static) + acked_rows, space)
    served = {int(mask, 16) for mask in dcs["masks"]} - {0}
    if served != sigma:
        return f"GET /dcs differs from the static oracle: {len(served - sigma)} extra, {len(sigma - served)} missing"
    return None


def backlog_growth(backlog):
    """A problem string when the write backlog grew across the run."""
    if len(backlog) < 8:
        return None
    half = backlog[: len(backlog) // 2]
    last = backlog[-max(2, len(backlog) // 4):]
    if statistics.mean(last) > 2 * statistics.mean(half) + 2:
        return (
            f"client backlog grew: mean {statistics.mean(half):.1f} rows in the "
            f"first half, {statistics.mean(last):.1f} in the last quarter"
        )
    return None


def run(inputs, seconds, trace, workroot):
    """Run ``served_writes``; returns ``(report, attempted, failed, problem)``."""
    report = Report()
    passes = []
    problem = None
    for traced in ((False, True) if trace else (False,)):
        length = seconds / 2 if trace else seconds
        workdir = os.path.join(workroot, f"pass-{int(traced)}")
        try:
            result, failure = drive(inputs, workdir, length, traced)
        finally:
            shutil.rmtree(os.path.join(workdir, "session"), ignore_errors=True)
        passes.append(result)
        problem = problem or failure or backlog_growth(result["lanes"]["write"].backlog)
    measured = passes[-1]
    writes, reads = measured["lanes"]["write"], measured["lanes"]["read"]
    ready = measured["ready"]
    fits = ready["fit_s"]
    report.add("setup_s", measured["spawn_s"] - sum(fits) + statistics.median(fits), "s",
               f"spawn to ready, median of {len(fits)} fits")
    report.add("peak_rss_mb", measured["server"]["peak_rss_mb"], "MiB", "server process")
    attempted = len(writes.latency_s) + writes.failed + len(reads.latency_s) + reads.failed
    failed = writes.failed + reads.failed
    report.add("success_rate", 1.0 - failed / max(1, attempted), "ratio")
    span = writes.last_ack - measured["t0"]
    report.add("rows_per_s", len(writes.acked) / span, "rows/s")
    for metric, samples in (("update", measured["server"]["cycle_s"]),
                            ("write", writes.latency_s), ("read", reads.latency_s)):
        samples_ms = [s * 1000 for s in samples]
        report.add(f"{metric}_p50_ms", median(samples_ms), "ms")
        report.add_tail(f"{metric}_tail_ms", samples_ms, "ms", tail_percentile(len(samples_ms)))
    report.notes.append("update_*: one server-side write cycle (DCService._apply_cycle)")
    late_ms = [s * 1000 for s in measured["late_s"]]
    report.add("loadgen.late_tail_ms", percentile(late_ms, 99), "ms")
    report.add("loadgen.backlog_max", max(writes.backlog), "count")
    for lane in (writes, reads):
        for error in lane.errors[:5]:
            report.notes.append(f"error: {error}")
    if trace:
        untraced = passes[0]["lanes"]["write"].latency_s
        report.add("trace.overhead_ratio", median(writes.latency_s) / median(untraced),
                   "ratio", "traced / untraced write_p50_ms")
        layer_metrics(report, measured)
    return report, attempted, failed, problem


#: Write-cycle stages: stage -> spans whose self time it gets.
STAGES = (
    ("coalesce", ("service.coalesce",)),
    ("WAL+fsync", ("durability.wal_append", "durability.session")),
    ("evidence", ("relational", "evidence.indexes.update", "evidence.incremental",
                  "evidence.kernels")),
    ("DynEI", ("enumeration.insert",)),
    # DCDiscoverer.insert's own time: reading and diffing Σ for its result.
    ("Σ bookkeeping", ("core.insert",)),
    ("checkpoint", ("durability.checkpoint",)),
    ("snapshot build", ("service.snapshot.build", "dcs.canonical", "evidence.indexes.clone")),
    ("respond", ("service.respond",)),
    ("unattributed", ("service.cycle",)),
)


def layer_metrics(report, measured):
    server = measured["server"]
    totals, counters, hooks = server["totals"], server["counters"], server["hooks"]
    cycles = max(1, totals.get("service.cycle", {}).get("calls", 0))

    def total_ms(name):
        return totals.get(name, {}).get("total_s", 0.0) * 1000

    def mean_ms(name):
        entry = totals.get(name, {})
        return entry.get("total_s", 0.0) * 1000 / max(1, entry.get("calls", 0))

    for phase, seconds in measured["ready"]["fit_phases"].items():
        report.add(f"fit.{phase}_s", seconds, "s")
    report.add("service.cycle_ms", total_ms("service.cycle") / cycles, "ms")
    for metric, span in (
        ("relational.ms", "relational"),
        ("evidence.indexes.update_ms", "evidence.indexes.update"),
        ("evidence.incremental.ms", "evidence.incremental"),
        ("evidence.kernels.ms", "evidence.kernels"),
        ("enumeration.insert_ms", "enumeration.insert"),
        ("core.insert_ms", "core.insert"),
        ("service.coalesce_ms", "service.coalesce"),
        ("service.respond_ms", "service.respond"),
        ("service.snapshot.build_ms", "service.snapshot.build"),
        ("dcs.canonical.ms", "dcs.canonical"),
        ("evidence.indexes.clone_ms", "evidence.indexes.clone"),
        ("durability.wal_append_ms", "durability.wal_append"),
    ):
        report.add(metric, total_ms(span) / cycles, "ms")
    report.add("durability.checkpoint_ms", mean_ms("durability.checkpoint"), "ms", "per checkpoint")
    report.add("durability.checkpoints", counters.get("durability.checkpoints", 0), "count", "whole run")
    report.add("durability.fsyncs", counters.get("durability.fsyncs", 0) / cycles, "count")
    durable = counters.get("durability.wal_bytes", 0) + counters.get("durability.checkpoint_bytes", 0)
    report.add("durability.bytes_per_user_byte", durable / max(1, hooks["user_bytes"]), "ratio")
    for name in ("evidence.pairs_compared", "evidence.index_probes", "enumeration.dcs_refined",
                 "enumeration.candidates_inserted", "index.checkpoint_rebuilds"):
        report.add(name, counters.get(name, 0) / cycles, "count")
    candidates = counters.get("enumeration.candidates_inserted", 0)
    report.add("enumeration.insert_yield",
               counters.get("discoverer.dcs_added", 0) / candidates if candidates else 0.0, "ratio")
    report.add("service.queue_wait_ms", median(hooks["queue_wait_s"] or [0.0]) * 1000, "ms", "median")
    report.add("service.coalescer.requests_per_cycle",
               counters.get("service.coalesced_requests_total", 0) / max(1, counters.get("service.batches_total", 0)),
               "count")
    report.add("service.coalescer.rows_per_cycle", statistics.mean(hooks["cycle_rows"] or [0]), "count")
    report.add("service.check_ms", mean_ms("service.check"), "ms", "per check")
    checks = max(1, totals.get("service.check", {}).get("calls", 0))
    report.add("dcs.violations.ms", total_ms("dcs.violations") / checks, "ms", "per check")
    reads = measured["lanes"]["read"]
    unique, lookups = reads.probes
    report.add("verification.probe_dedup", unique / lookups if lookups else 0.0, "ratio")
    client_s = measured["lanes"]["write"].request_s + reads.request_s
    server_s = hooks["endpoint_s"].get("/insert", []) + hooks["endpoint_s"].get("/check", [])
    report.add("service.http.overhead_ms",
               (statistics.mean(client_s) - statistics.mean(server_s or [0.0])) * 1000, "ms",
               "mean client request time minus mean server endpoint time")
    stage_ms = {
        stage: sum(totals.get(span, {}).get("self_s", 0.0) for span in spans) * 1000 / cycles
        for stage, spans in STAGES
    }
    cycle_ms = total_ms("service.cycle") / cycles
    report.add("service.cycle.unattributed_ratio",
               stage_ms["unattributed"] / cycle_ms if cycle_ms else 0.0, "ratio")
    report.notes.append("write-cycle stage table (self ms per cycle): " + ", ".join(
        f"{stage} {value:.2f}" for stage, value in stage_ms.items()))
