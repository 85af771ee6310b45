"""Flow analyses: lock order (RPR601), resource balance (RPR602/603),
metric contracts (RPR604), SARIF, and the
static-vs-dynamic lock-order comparison."""

from __future__ import annotations

import json
import threading

import pytest

from repro.analysis import (
    LocksetMonitor,
    analyze_flow,
    write_order_edges_jsonl,
)
from repro.analysis.__main__ import main
from repro.analysis.findings import findings_to_sarif, read_findings_jsonl

# ----------------------------------------------------------------------
# The acceptance fixture: one lock-order cycle, one leaked connection,
# one undocumented metric — exactly three findings.
# ----------------------------------------------------------------------
FIXTURE = '''
import threading


class Transfer:
    """Classic AB/BA deadlock shape."""

    def __init__(self):
        self._lock_a = threading.Lock()
        self._lock_b = threading.Lock()

    def forward(self):
        with self._lock_a:
            with self._lock_b:
                pass

    def backward(self):
        with self._lock_b:
            with self._lock_a:
                pass


def leaky(pool, p):
    connection = pool.acquire()
    if p:
        connection.release()
    # falling off the end without release on the False branch: leak


def emit(registry):
    registry.counter("fixture.undocumented_total").inc()
'''

REGISTRY_MD = """# registry

| name | kind | labels | description |
| --- | --- | --- | --- |
"""


@pytest.fixture()
def fixture_tree(tmp_path):
    source = tmp_path / "fixture.py"
    source.write_text(FIXTURE, encoding="utf-8")
    registry = tmp_path / "metrics.md"
    registry.write_text(REGISTRY_MD, encoding="utf-8")
    return source, registry


def test_fixture_produces_exactly_three_findings(fixture_tree, tmp_path):
    source, registry = fixture_tree
    report = analyze_flow([str(source)], registry_path=registry, root=tmp_path)
    rules = sorted(f.rule for f in report.findings)
    assert rules == ["RPR601", "RPR602", "RPR604"], [
        f.format() for f in report.findings
    ]
    by_rule = {f.rule: f for f in report.findings}
    assert "Transfer._lock_a" in by_rule["RPR601"].message
    assert "Transfer._lock_b" in by_rule["RPR601"].message
    assert "release" in by_rule["RPR602"].message
    assert "fixture.undocumented_total" in by_rule["RPR604"].message


def test_fixture_findings_in_jsonl_and_sarif(fixture_tree, tmp_path, capsys):
    source, registry = fixture_tree
    jsonl_out = tmp_path / "findings.jsonl"
    code = main(
        [
            "flow",
            str(source),
            "--registry",
            str(registry),
            "--format",
            "jsonl",
            "--out",
            str(jsonl_out),
        ]
    )
    assert code == 1
    stdout = capsys.readouterr().out
    lines = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    assert sorted(record["rule"] for record in lines) == [
        "RPR601",
        "RPR602",
        "RPR604",
    ]
    archived = read_findings_jsonl(jsonl_out)
    assert sorted(f.rule for f in archived) == ["RPR601", "RPR602", "RPR604"]

    sarif_out = tmp_path / "findings.sarif"
    code = main(
        [
            "flow",
            str(source),
            "--registry",
            str(registry),
            "--format",
            "sarif",
            "--out",
            str(sarif_out),
        ]
    )
    assert code == 1
    capsys.readouterr()
    log = json.loads(sarif_out.read_text(encoding="utf-8"))
    assert log["version"] == "2.1.0"
    results = [result for run in log["runs"] for result in run["results"]]
    assert sorted(r["ruleId"] for r in results) == ["RPR601", "RPR602", "RPR604"]
    # Rule metadata is present and indexed.
    for run in log["runs"]:
        ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
        for result in run["results"]:
            assert ids[result["ruleIndex"]] == result["ruleId"]
    # Locations are 1-based.
    located = [r for r in results if "locations" in r]
    assert located
    for result in located:
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1


# ----------------------------------------------------------------------
# Static vs dynamic lock-order edges (one schema, mechanically diffable)
# ----------------------------------------------------------------------
PAIR_SOURCE = '''
import threading


class Pair:
    def __init__(self):
        self._first = threading.Lock()
        self._second = threading.Lock()

    def both(self):
        with self._first:
            with self._second:
                pass
'''


class Pair:
    def __init__(self):
        self._first = threading.Lock()
        self._second = threading.Lock()

    def both(self):
        with self._first:
            with self._second:
                pass


def test_static_and_dynamic_order_edges_agree(tmp_path):
    source = tmp_path / "pair.py"
    source.write_text(PAIR_SOURCE, encoding="utf-8")
    report = analyze_flow([str(source)], registry_path=None, root=tmp_path)
    static_edges = {(e["from"], e["to"]) for e in report.edge_dicts()}
    assert static_edges == {("Pair._first", "Pair._second")}

    monitor = LocksetMonitor()
    with monitor.instrument(Pair):
        Pair().both()
    dynamic = monitor.order_edges()
    dynamic_edges = {(e["from"], e["to"]) for e in dynamic}
    assert dynamic_edges == static_edges

    # Same JSONL schema both ways.
    static_path = write_order_edges_jsonl(report.edge_dicts(), tmp_path / "static.jsonl")
    dynamic_path = write_order_edges_jsonl(dynamic, tmp_path / "dynamic.jsonl")
    static_records = [
        json.loads(line) for line in static_path.read_text().splitlines()
    ]
    dynamic_records = [
        json.loads(line) for line in dynamic_path.read_text().splitlines()
    ]
    keys = {"from", "to", "path", "line", "via", "source"}
    for record in static_records + dynamic_records:
        assert set(record) == keys
    assert {r["source"] for r in static_records} == {"static"}
    assert {r["source"] for r in dynamic_records} == {"dynamic"}
    # An observed edge whose reverse is derived statically would be a
    # latent deadlock; here there is none.
    assert not any((b, a) in static_edges for a, b in dynamic_edges)


def test_monitor_order_edges_reset():
    monitor = LocksetMonitor()
    with monitor.instrument(Pair):
        Pair().both()
    assert monitor.order_edges()
    monitor.reset()
    assert monitor.order_edges() == []


# ----------------------------------------------------------------------
# Regression tests for the genuine findings this analysis surfaced
# ----------------------------------------------------------------------
def test_repo_flow_is_clean_and_acyclic():
    report = analyze_flow(["src"], registry_path="docs/metrics.md")
    assert [f.format() for f in report.findings] == []
    # The dispatcher-condition -> batcher edge is expected and acyclic.
    pairs = {(e.src, e.dst) for e in report.lock_edges}
    assert not any((b, a) in pairs for (a, b) in pairs)


def test_latent_cache_metrics_still_emitted():
    """Every ``get`` emits exactly one of hits / misses / disabled lookups."""
    from repro.core.latent_cache import CachedEncoding, LatentCache
    from repro.obs.metrics import MetricsRegistry

    import numpy as np

    registry = MetricsRegistry()
    cache = LatentCache(metrics=registry)
    cache.put(0, CachedEncoding([np.zeros((1, 2, 4), dtype=np.float32)]))
    assert cache.get(0) is not None
    assert cache.get(0) is None  # already handed over
    disabled = LatentCache(enabled=False, metrics=registry)
    assert disabled.get(0) is None
    snapshot = registry.snapshot()
    assert snapshot["cache.hits"]["value"] == 1
    assert snapshot["cache.misses"]["value"] == 1
    assert snapshot["cache.disabled_lookups"]["value"] == 1


# ----------------------------------------------------------------------
# Contract checker specifics
# ----------------------------------------------------------------------
def test_bad_metric_name_flagged(tmp_path):
    source = tmp_path / "bad.py"
    source.write_text(
        "def f(m):\n"
        "    m.counter('BadName').inc()\n"
        "    m.gauge('nolabels').set(1)\n",
        encoding="utf-8",
    )
    report = analyze_flow([str(source)], registry_path=None, root=tmp_path)
    messages = [f.message for f in report.findings if f.rule == "RPR604"]
    assert len(messages) == 2  # uppercase + single-segment
    assert any("BadName" in m for m in messages)
    assert any("nolabels" in m for m in messages)


def test_kind_conflict_flagged(tmp_path):
    source = tmp_path / "conflict.py"
    source.write_text(
        "def f(m):\n"
        "    m.counter('x.y').inc()\n"
        "    m.gauge('x.y').set(1)\n",
        encoding="utf-8",
    )
    report = analyze_flow([str(source)], registry_path=None, root=tmp_path)
    conflicts = [
        f for f in report.findings if "multiple instrument kinds" in f.message
    ]
    assert len(conflicts) == 1


def test_stale_registry_row_is_warning_only(tmp_path):
    source = tmp_path / "ok.py"
    source.write_text("def f(m):\n    m.counter('a.b').inc()\n", encoding="utf-8")
    registry = tmp_path / "metrics.md"
    registry.write_text(
        "| name | kind | labels | description |\n"
        "| --- | --- | --- | --- |\n"
        "| `a.b` | counter | — | fine |\n"
        "| `gone.metric` | counter | — | deleted code |\n",
        encoding="utf-8",
    )
    report = analyze_flow([str(source)], registry_path=registry, root=tmp_path)
    assert [f.severity for f in report.findings] == ["warning"]
    assert "gone.metric" in report.findings[0].message
    # Warnings do not gate: exit code logic treats only errors as fatal.
    from repro.analysis.__main__ import _exit_code

    assert _exit_code(report.findings) == 0


def test_missing_registry_is_an_error(tmp_path):
    source = tmp_path / "ok.py"
    source.write_text("def f(m):\n    m.counter('a.b').inc()\n", encoding="utf-8")
    report = analyze_flow(
        [str(source)], registry_path=tmp_path / "absent.md", root=tmp_path
    )
    assert any(
        f.rule == "RPR604" and "does not exist" in f.message for f in report.findings
    )


# ----------------------------------------------------------------------
# RPR602/603 specifics
# ----------------------------------------------------------------------
def test_acquire_in_try_finally_is_clean(tmp_path):
    source = tmp_path / "clean.py"
    source.write_text(
        "def f(pool):\n"
        "    connection = pool.acquire()\n"
        "    try:\n"
        "        return connection.run()\n"
        "    finally:\n"
        "        connection.release()\n",
        encoding="utf-8",
    )
    report = analyze_flow([str(source)], registry_path=None, root=tmp_path)
    assert [f.format() for f in report.findings] == []


def test_span_discarded_is_flagged(tmp_path):
    source = tmp_path / "span.py"
    source.write_text(
        "def f(tracer):\n"
        "    tracer.span('work')\n"
        "    do_work()\n",
        encoding="utf-8",
    )
    report = analyze_flow([str(source)], registry_path=None, root=tmp_path)
    assert [f.rule for f in report.findings] == ["RPR602"]
    assert "discarded" in report.findings[0].message


def test_span_assigned_then_entered_is_clean(tmp_path):
    source = tmp_path / "span_ok.py"
    source.write_text(
        "def f(tracer):\n"
        "    span = tracer.span('work')\n"
        "    with span:\n"
        "        do_work()\n",
        encoding="utf-8",
    )
    report = analyze_flow([str(source)], registry_path=None, root=tmp_path)
    assert [f.format() for f in report.findings] == []


def test_submitted_futures_must_be_resolved_on_every_path(tmp_path):
    source = tmp_path / "futures.py"
    source.write_text(
        "def bad(batcher, requests, p):\n"
        "    futures = batcher.submit_many(requests)\n"
        "    if p:\n"
        "        return [f.result() for f in futures]\n"
        "    # falling through drops the futures\n"
        "\n"
        "def good(batcher, requests):\n"
        "    futures = batcher.submit_many(requests)\n"
        "    try:\n"
        "        return [f.result() for f in futures]\n"
        "    finally:\n"
        "        for pending in futures:\n"
        "            pending.cancel()\n",
        encoding="utf-8",
    )
    report = analyze_flow([str(source)], registry_path=None, root=tmp_path)
    assert [f.rule for f in report.findings] == ["RPR603"]
    assert "'bad'" in report.findings[0].message


def test_discarded_submit_is_flagged(tmp_path):
    source = tmp_path / "drop.py"
    source.write_text(
        "def f(batcher, request):\n"
        "    batcher.submit(request)\n",
        encoding="utf-8",
    )
    report = analyze_flow([str(source)], registry_path=None, root=tmp_path)
    assert [f.rule for f in report.findings] == ["RPR603"]
