"""Tier-1 gate: the shipped tree stays clean under repro.analysis.

Every future PR runs these with the regular suite, so a change that
reintroduces a lock-order cycle, a leaked connection, a silent autograd
detach or an undocumented metric fails CI here — with the offending file
and line in the assertion message.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import analyze_flow, lint_paths, render_findings
from repro.analysis.races import self_check

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_source_tree_is_lint_clean():
    findings = lint_paths([SRC])
    assert findings == [], "\n" + render_findings(findings)


def test_race_detector_self_check():
    failures = list(self_check())
    assert failures == [], "\n" + render_findings(failures)


def test_source_tree_is_flow_clean():
    """Lock order is acyclic, resources are balanced on every CFG path,
    and every emitted metric/span is documented in docs/metrics.md."""
    report = analyze_flow([SRC], registry_path=ROOT / "docs" / "metrics.md", root=ROOT)
    assert report.findings == [], "\n" + render_findings(report.findings)
    assert report.functions_analyzed > 500  # the whole tree was walked
