"""Tier-1 gate: the shipped tree stays clean under repro.analysis.

Every future PR runs these with the regular suite, so a change that
reintroduces a silent autograd detach or an undocumented metric fails CI
here — with the offending file and line in the assertion message. Lock
order and leaks are checked at run time by ``test_stack_lock_order.py``.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import check_tree, lint_paths, render_findings
from repro.analysis.races import self_check

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_source_tree_is_lint_clean():
    findings = lint_paths([SRC])
    assert findings == [], "\n" + render_findings(findings)


def test_race_detector_self_check():
    failures = list(self_check())
    assert failures == [], "\n" + render_findings(failures)


def test_source_tree_is_contracts_clean():
    """Every emitted metric/span is well named and documented in
    docs/metrics.md, and every documented one is still emitted."""
    findings = check_tree([SRC], ROOT / "docs" / "metrics.md", root=ROOT)
    assert findings == [], "\n" + render_findings(findings)
