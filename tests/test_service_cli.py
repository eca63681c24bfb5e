"""End-to-end test of ``repro-dc serve``: real subprocess, real signals.

This is the same scenario the CI ``service`` smoke job runs: boot the
server from a CSV, drive it with concurrent :class:`ServiceClient`
threads, SIGTERM the process, and assert that

- the process drains, checkpoints, and exits 0;
- the recovered on-disk state is byte-identical to replaying the
  committed writes (rebuilt from the outcomes the clients received)
  serially into a fresh oracle session.
"""

from __future__ import annotations

import csv
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.core.discoverer import DCDiscoverer
from repro.core.state_io import state_to_bytes
from repro.durability import DurableSession
from repro.service import ServiceClient
from repro.workloads import staff_relation
from tests.conftest import replay_committed

STAFF_ROWS = [
    (1, "Ana", 2000, 5, 1),
    (2, "Sam", 2001, 4, 1),
    (3, "Ana", 2001, 2, 2),
    (4, "Kai", 2002, 2, 2),
]


@pytest.fixture
def staff_csv(tmp_path):
    path = tmp_path / "staff.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["Id", "Name", "Hired", "Level", "Mgr"])
        writer.writerows(STAFF_ROWS)
    return path


def spawn_server(staff_csv, session_dir, *extra_args):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            str(staff_csv),
            "--dir",
            str(session_dir),
            "--port",
            "0",
            *extra_args,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def read_url(process, deadline_s=30.0):
    """Parse the flushed ``serving on http://... (role)`` startup line."""
    deadline = time.monotonic() + deadline_s
    lines = []
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            raise AssertionError(
                "server exited before announcing its URL:\n" + "".join(lines)
            )
        lines.append(line)
        if line.startswith("serving on "):
            return line.split("serving on ", 1)[1].split()[0]
    raise AssertionError("no startup line within deadline:\n" + "".join(lines))


def test_serve_concurrent_traffic_sigterm_drain_recover(staff_csv, tmp_path):
    session_dir = tmp_path / "session"
    process = spawn_server(
        staff_csv, session_dir, "--batch-window-ms", "10", "--checkpoint-every", "4"
    )
    try:
        url = read_url(process)
        client = ServiceClient(base_url=url, timeout=15.0)
        client.wait_ready(deadline_s=15.0)

        errors = []
        writes = []

        def worker(worker_id: int):
            try:
                rows = [
                    [100 + 2 * worker_id, f"W{worker_id}", 2005, 1, 1],
                    [101 + 2 * worker_id, f"X{worker_id}", 2006, 2, 1],
                ]
                own = client.insert(rows)
                assert own["status"] == "committed"
                writes.append(("insert", rows, own))
                deleted = client.delete([own["rids"][0]])
                assert deleted["status"] == "committed"
                writes.append(("delete", [own["rids"][0]], deleted))
                checked = client.check([999, f"W{worker_id}", 2005, 1, 1])
                assert checked["seq"] >= own["seq"]
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []

        status = client.status()
        assert status["rows"] == 4 + 5 * 2 - 5

        process.send_signal(signal.SIGTERM)
        stdout, _ = process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate(timeout=10)
    assert process.returncode == 0, stdout
    assert "drained and stopped" in stdout

    # The durable directory recovers cleanly (final checkpoint covers
    # everything — nothing left to replay from the WAL)...
    recovered = DurableSession.recover(session_dir)
    assert recovered.replayed_records == 0
    assert len(recovered.discoverer.relation) == status["rows"]

    # ...and matches a serial replay of the committed writes.
    oracle = DurableSession.create(
        DCDiscoverer(staff_relation()), tmp_path / "oracle"
    )
    replay_committed(oracle, writes)
    assert state_to_bytes(recovered.discoverer) == state_to_bytes(
        oracle.discoverer
    )
    recovered.close()
    oracle.close()


def test_serve_refuses_csv_over_existing_session(staff_csv, tmp_path):
    session_dir = tmp_path / "session"
    DurableSession.create(DCDiscoverer(staff_relation()), session_dir).close()
    process = spawn_server(staff_csv, session_dir)
    stdout, _ = process.communicate(timeout=60)
    assert process.returncode == 2
    assert "session already exists" in stdout
