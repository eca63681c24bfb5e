"""The metrics catalog is executable: every metric the pipeline emits is
documented.

Runs fit, insert and delete under both delete strategies, one verify-mode
insert and delete, and one served write plus ``/check``, ``/dcs``,
``/status`` and ``/metrics``, then asserts that each emitted counter,
gauge and histogram name matches a table row in ``docs/*.md``.  A row
names its metrics in backticks in its first cell, with two shorthands:
``a.b`` / ``c`` is ``a.b`` and ``a.c``, and ``a.{x,y}_z`` is ``a.x_z``
and ``a.y_z``; an ``<…>`` placeholder matches any text.
"""

from __future__ import annotations

import itertools
import re
from pathlib import Path

from repro.core.discoverer import DCDiscoverer
from repro.durability import DurableSession
from repro.service import DCService, ServiceClient, ServiceConfig
from repro.workloads import staff_relation

DOCS = Path(__file__).resolve().parent.parent / "docs"

_BRACES = re.compile(r"\{([^{}]*)\}")


def _expand_braces(name: str) -> list:
    parts = _BRACES.split(name)
    # split() alternates literal text and brace contents.
    choices = [
        part.split(",") if index % 2 else [part]
        for index, part in enumerate(parts)
    ]
    return ["".join(combo) for combo in itertools.product(*choices)]


def documented_patterns() -> list:
    """One compiled pattern per metric name in a docs table row."""
    patterns = []
    for path in sorted(DOCS.glob("*.md")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if not line.startswith("|"):
                continue
            first_cell = line.split("|")[1]
            prefix = ""
            for token in re.findall(r"`([^`]+)`", first_cell):
                if "." in token:
                    prefix = token.rsplit(".", 1)[0] + "."
                    full = token
                else:
                    full = prefix + token
                for name in _expand_braces(full):
                    pieces = re.split(r"<[^>]*>", name)
                    patterns.append(
                        re.compile(".+".join(map(re.escape, pieces)) + r"\Z")
                    )
    return patterns


def _emitted(registry) -> set:
    snapshot = registry.snapshot()
    return {
        name
        for kind in ("counters", "gauges", "histograms")
        for name in snapshot.get(kind, {})
    }


def test_expands_row_shorthands(tmp_path, monkeypatch):
    (tmp_path / "a.md").write_text(
        "| `x.y` / `z` | counter | two names |\n"
        "| `b.{and,or}_ops` | counter | braces |\n"
        "| `e.s.<METHOD> <path>` | histogram | pattern |\n"
        "| not a metric `q.r` | | only first cells count |\n"
        "prose `p.q` is not a row\n"
    )
    monkeypatch.setattr(
        "tests.test_metrics_catalog.DOCS", tmp_path
    )
    patterns = documented_patterns()

    def documented(name):
        return any(pattern.match(name) for pattern in patterns)

    for name in ("x.y", "x.z", "b.and_ops", "b.or_ops", "e.s.GET /dcs", "q.r"):
        assert documented(name), name
    for name in ("z", "b.xor_ops", "p.q", "x.y.z"):
        assert not documented(name), name


def test_every_emitted_metric_is_documented(tmp_path):
    emitted = set()
    for strategy in ("index", "recompute"):
        discoverer = DCDiscoverer(staff_relation(), delete_strategy=strategy)
        discoverer.fit()
        inserted = discoverer.insert(
            [(10, "Ana", 2000, 1, 1), (11, "Bo", 2001, 2, 2)]
        )
        discoverer.delete([inserted.rids[0], 1])
        emitted |= _emitted(discoverer.instrumentation.metrics)

    verifier = DCDiscoverer(
        staff_relation(), mode="verify", constraints=[discoverer.dc_masks[0]]
    )
    verifier.fit()
    inserted = verifier.insert([(10, "Ana", 2000, 1, 1)])
    verifier.delete([inserted.rids[0]])
    emitted |= _emitted(verifier.instrumentation.metrics)

    session = DurableSession.create(
        DCDiscoverer(staff_relation()), tmp_path / "session"
    )
    service = DCService(session, ServiceConfig(port=0))
    service.start()
    try:
        client = ServiceClient(base_url=service.url, timeout=30.0)
        client.wait_ready()
        client.insert([[50, "Zed", 2020, 3, 1]])
        client.check([51, "Zed", 2020, 3, 1])
        client.dcs()
        client.status()
        client.metrics_text()
    finally:
        service.shutdown()
    emitted |= _emitted(service.instrumentation.metrics)

    patterns = documented_patterns()
    undocumented = sorted(
        name for name in emitted
        if not any(pattern.match(name) for pattern in patterns)
    )
    assert undocumented == [], (
        "emitted metrics with no docs/*.md table row: "
        + ", ".join(undocumented)
    )
