"""``repro.analysis`` — a zero-new-dependency static-analysis toolkit.

Three engines behind one CLI (``python -m repro.analysis``):

* :mod:`repro.analysis.lint` + :mod:`repro.analysis.rules` — an AST lint
  engine with repo-specific rules (autograd safety, observability
  hygiene, inference throughput) and flake8-style ``# noqa: RPR###``
  suppression;
* :mod:`repro.analysis.races` — an Eraser-style lockset monitor that
  instruments classes under test, flags shared writes with no common
  lock, and records the lock-acquisition order it observes so a test can
  assert it acyclic (:meth:`LocksetMonitor.order_cycle`);
* :mod:`repro.analysis.contracts` — the metric/span naming and registry
  contract (RPR604).

Lock order and resource leaks are checked at run time, where they can be
seen: ``tests/test_stack_lock_order.py`` drives detection and the service
under the monitor over every lock-owning class and then checks that no
connection, batcher request or latent is left held.

All engines report through :class:`repro.analysis.findings.Finding`, with
text, JSONL and SARIF emitters, and the tier-1 test suite gates the tree
on ``lint`` and ``contracts`` staying clean.
"""

from .contracts import (
    MetricUse,
    RegistryEntry,
    check_contracts,
    check_tree,
    collect_metric_uses,
    parse_registry,
    registry_markdown,
)
from .findings import (
    Finding,
    findings_to_sarif,
    read_findings_jsonl,
    render_findings,
    write_findings_jsonl,
    write_findings_sarif,
)
from .lint import Rule, lint_paths, register, registered_rules
from .races import LocksetMonitor, RaceReport

from . import rules as _rules  # noqa: F401 - populate the rule registry

__all__ = [
    "Finding",
    "render_findings",
    "write_findings_jsonl",
    "read_findings_jsonl",
    "findings_to_sarif",
    "write_findings_sarif",
    "Rule",
    "register",
    "registered_rules",
    "lint_paths",
    "LocksetMonitor",
    "RaceReport",
    "MetricUse",
    "RegistryEntry",
    "collect_metric_uses",
    "parse_registry",
    "check_contracts",
    "check_tree",
    "registry_markdown",
]
