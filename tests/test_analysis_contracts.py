"""The metric/span contract (RPR604): naming, kind consistency, the
registry diff, its CLI with JSONL and SARIF output, and regeneration of
the committed registry."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis import check_contracts, check_tree, collect_metric_uses
from repro.analysis.__main__ import _exit_code, main
from repro.analysis.findings import read_findings_jsonl

ROOT = Path(__file__).resolve().parents[1]

EMPTY_REGISTRY = """# registry

| name | kind | labels | description |
| --- | --- | --- | --- |
"""


def _naming_findings(tmp_path, source_text):
    source = tmp_path / "source.py"
    source.write_text(source_text, encoding="utf-8")
    uses = collect_metric_uses([str(source)], root=tmp_path)
    return check_contracts(uses, registry=None)


def test_bad_metric_name_flagged(tmp_path):
    findings = _naming_findings(
        tmp_path,
        "def f(m):\n"
        "    m.counter('BadName').inc()\n"
        "    m.gauge('nolabels').set(1)\n",
    )
    messages = [f.message for f in findings if f.rule == "RPR604"]
    assert len(messages) == 2  # uppercase + single-segment
    assert any("BadName" in m for m in messages)
    assert any("nolabels" in m for m in messages)


def test_kind_conflict_flagged(tmp_path):
    findings = _naming_findings(
        tmp_path,
        "def f(m):\n"
        "    m.counter('x.y').inc()\n"
        "    m.gauge('x.y').set(1)\n",
    )
    conflicts = [f for f in findings if "multiple instrument kinds" in f.message]
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
    findings = check_tree([str(source)], registry, root=tmp_path)
    assert [f.severity for f in findings] == ["warning"]
    assert "gone.metric" in findings[0].message
    # Warnings gate too: the CLI fails on any finding.
    assert _exit_code(findings) == 1


def test_cli_exits_1_on_stale_registry_row(tmp_path, capsys):
    source = tmp_path / "ok.py"
    source.write_text("def f(m):\n    m.counter('a.b').inc()\n", encoding="utf-8")
    registry = tmp_path / "metrics.md"
    registry.write_text(
        EMPTY_REGISTRY
        + "| `a.b` | counter | — | fine |\n"
        + "| `gone.metric` | counter | — | deleted code |\n",
        encoding="utf-8",
    )
    assert main(["contracts", str(source), "--registry", str(registry)]) == 1
    assert "gone.metric" in capsys.readouterr().out


def test_missing_registry_is_an_error(tmp_path):
    source = tmp_path / "ok.py"
    source.write_text("def f(m):\n    m.counter('a.b').inc()\n", encoding="utf-8")
    findings = check_tree([str(source)], tmp_path / "absent.md", root=tmp_path)
    assert any(
        f.rule == "RPR604" and "does not exist" in f.message for f in findings
    )


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


def test_contract_findings_in_jsonl_and_sarif(tmp_path, capsys):
    """One bad name and one undocumented metric, through both exporters."""
    source = tmp_path / "fixture.py"
    source.write_text(
        "def emit(registry):\n"
        "    registry.counter('BadName').inc()\n"
        "    registry.counter('fixture.undocumented_total').inc()\n",
        encoding="utf-8",
    )
    registry = tmp_path / "metrics.md"
    registry.write_text(EMPTY_REGISTRY, encoding="utf-8")
    common = ["contracts", str(source), "--registry", str(registry)]

    jsonl_out = tmp_path / "findings.jsonl"
    assert main(common + ["--format", "jsonl", "--out", str(jsonl_out)]) == 1
    stdout = capsys.readouterr().out
    records = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    # The bad name is flagged twice: naming scheme and missing row.
    assert [r["rule"] for r in records] == ["RPR604"] * 3
    assert {r["tool"] for r in records} == {"contracts"}
    assert any("fixture.undocumented_total" in r["message"] for r in records)
    archived = read_findings_jsonl(jsonl_out)
    assert [f.to_dict() for f in archived] == records

    sarif_out = tmp_path / "findings.sarif"
    assert main(common + ["--format", "sarif", "--out", str(sarif_out)]) == 1
    capsys.readouterr()
    log = json.loads(sarif_out.read_text(encoding="utf-8"))
    assert log["version"] == "2.1.0"
    results = [result for run in log["runs"] for result in run["results"]]
    assert [r["ruleId"] for r in results] == ["RPR604"] * 3
    # Rule metadata is present and indexed.
    for run in log["runs"]:
        ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
        for result in run["results"]:
            assert ids[result["ruleIndex"]] == result["ruleId"]
    # Locations are 1-based.
    for result in results:
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1


def test_update_registry_reproduces_committed_file(tmp_path, monkeypatch, capsys):
    """Regenerating docs/metrics.md from the tree changes nothing."""
    committed = ROOT / "docs" / "metrics.md"
    copy = tmp_path / "metrics.md"
    copy.write_bytes(committed.read_bytes())
    monkeypatch.chdir(ROOT)
    assert main(["contracts", "src", "--registry", str(copy), "--update-registry"]) == 0
    capsys.readouterr()
    assert copy.read_bytes() == committed.read_bytes()
