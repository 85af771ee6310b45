"""Each lint rule fires on a synthetic bad example and stays quiet on the
fixed version; suppression, registry and emitters are covered too."""

from __future__ import annotations

import ast
import json
from pathlib import Path

from repro.analysis import (
    Finding,
    lint_paths,
    read_findings_jsonl,
    registered_rules,
    render_findings,
    write_findings_jsonl,
)
from repro.analysis.__main__ import main
from repro.analysis.rules import rule_catalogue


def _lint_source(tmp_path: Path, source: str) -> list:
    target = tmp_path / "example.py"
    target.write_text(source)
    return lint_paths([target])


def _rules_hit(findings: list) -> set[str]:
    return {finding.rule for finding in findings}


# ----------------------------------------------------------------------
# RPR1xx — autograd safety
# ----------------------------------------------------------------------
def test_rpr101_float_on_data(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def track(loss, total):\n"
        "    total += float(loss.data)\n"
        "    return total\n",
    )
    assert _rules_hit(findings) == {"RPR101"}
    assert findings[0].line == 2


def test_rpr101_clean_item(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def track(loss, total):\n"
        "    total += loss.item()\n"
        "    return total\n",
    )
    assert findings == []


def test_rpr104_data_subscript(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def read(logits):\n"
        "    return logits.data[0]\n",
    )
    assert _rules_hit(findings) == {"RPR104"}


# ----------------------------------------------------------------------
# RPR3xx — observability hygiene
# ----------------------------------------------------------------------
def test_rpr302_metric_in_loop(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def run(metrics, items):\n"
        "    for item in items:\n"
        "        metrics.counter('hits').inc()\n",
    )
    assert _rules_hit(findings) == {"RPR302"}


def test_rpr302_hoisted_handle_is_clean(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def run(metrics, items):\n"
        "    hits = metrics.counter('hits')\n"
        "    for item in items:\n"
        "        hits.inc()\n",
    )
    assert findings == []


# ----------------------------------------------------------------------
# Engine machinery
# ----------------------------------------------------------------------
def test_noqa_suppresses_specific_rule(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def track(loss, total):\n"
        "    total += float(loss.data)  # noqa: RPR101\n"
        "    return total\n",
    )
    assert findings == []


def test_blanket_noqa_suppresses_everything(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def track(loss, total):\n"
        "    total += float(loss.data)  # noqa\n",
    )
    assert findings == []


def test_noqa_does_not_suppress_other_rules(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def track(loss, total):\n"
        "    total += float(loss.data)  # noqa: RPR999\n",
    )
    assert _rules_hit(findings) == {"RPR101"}


def test_syntax_error_reported_not_fatal(tmp_path):
    findings = _lint_source(tmp_path, "def broken(:\n")
    assert [f.rule for f in findings] == ["RPR000"]


def test_registry_has_all_documented_rules():
    ids = {rule.id for rule in registered_rules()}
    assert ids == {"RPR101", "RPR104", "RPR302", "RPR501"}


def test_rule_ids_unique_across_engines():
    """One id, one meaning: lint, races and contracts never share an RPR number."""
    import repro.analysis.contracts
    import repro.analysis.races

    def emitted(*modules) -> set[str]:
        # Every engine tags findings with a literal ``rule="RPR###"`` keyword.
        ids = set()
        for module in modules:
            for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
                if isinstance(node, ast.keyword) and node.arg == "rule":
                    ids.add(ast.literal_eval(node.value))
        return ids

    by_engine = {
        "lint": {rule_id for rule_id, _, _ in rule_catalogue()},
        "races": emitted(repro.analysis.races),
        "contracts": emitted(repro.analysis.contracts),
    }
    assert by_engine["races"] == {"RPR700", "RPR701"}
    assert by_engine["contracts"] == {"RPR604"}
    engines = sorted(by_engine)
    for i, first in enumerate(engines):
        for second in engines[i + 1:]:
            assert not by_engine[first] & by_engine[second], (first, second)


def test_findings_jsonl_round_trip(tmp_path):
    finding = Finding(
        tool="lint", rule="RPR101", message="msg", path="a.py", line=3, col=7,
        context={"attr": "count"},
    )
    path = write_findings_jsonl([finding], tmp_path / "out" / "findings.jsonl")
    assert read_findings_jsonl(path) == [finding]
    record = json.loads(path.read_text().strip())
    assert record["rule"] == "RPR101" and record["line"] == 3


def test_render_findings_text():
    finding = Finding(tool="lint", rule="RPR101", message="msg", path="a.py", line=3)
    assert "a.py:3:0: RPR101" in render_findings([finding])
    assert render_findings([]) == "no findings"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_lint_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(loss):\n    return float(loss.data)\n")
    good = tmp_path / "good.py"
    good.write_text("def f(loss):\n    return loss.item()\n")

    assert main(["lint", str(bad)]) == 1
    assert "RPR101" in capsys.readouterr().out
    assert main(["lint", str(good)]) == 0


def test_cli_lint_jsonl_artifact(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(loss):\n    return float(loss.data)\n")
    out = tmp_path / "findings.jsonl"
    assert main(["lint", str(bad), "--format", "jsonl", "--out", str(out)]) == 1
    stdout = capsys.readouterr().out
    assert json.loads(stdout.strip())["rule"] == "RPR101"
    assert read_findings_jsonl(out)[0].rule == "RPR101"


def test_cli_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "RPR101" in out and "RPR302" in out


def test_cli_races_self_check(capsys):
    assert main(["races"]) == 0


# ----------------------------------------------------------------------
# RPR5xx — inference throughput
# ----------------------------------------------------------------------
def test_rpr501_single_item_collate_in_loop(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def scan(model, chunks):\n"
        "    for chunk in chunks:\n"
        "        batch = collate([chunk])\n"
        "        model(batch)\n",
    )
    assert _rules_hit(findings) == {"RPR501"}


def test_rpr501_attribute_collate_in_while_loop(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def scan(features, queue, model):\n"
        "    while queue:\n"
        "        batch = features.collate([queue.pop()])\n"
        "        model(batch)\n",
    )
    assert _rules_hit(findings) == {"RPR501"}


def test_rpr501_quiet_on_multi_item_collate(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def scan(model, groups):\n"
        "    for group in groups:\n"
        "        batch = collate([encoded for encoded in group])\n"
        "        model(batch)\n",
    )
    assert findings == []


def test_rpr501_quiet_outside_loop(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def scan_one(model, chunk):\n"
        "    batch = collate([chunk])\n"
        "    return model(batch)\n",
    )
    assert findings == []


def test_rpr501_quiet_on_other_single_item_calls(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def scan(model, chunks):\n"
        "    for chunk in chunks:\n"
        "        model(stack([chunk]))\n",
    )
    assert findings == []


def test_rpr501_noqa(tmp_path):
    findings = _lint_source(
        tmp_path,
        "def scan(model, chunks):\n"
        "    for chunk in chunks:\n"
        "        batch = collate([chunk])  # noqa: RPR501\n"
        "        model(batch)\n",
    )
    assert findings == []
