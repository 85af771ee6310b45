"""``repro.analysis`` — a zero-new-dependency static-analysis toolkit.

Three engines behind one CLI (``python -m repro.analysis``):

* :mod:`repro.analysis.lint` + :mod:`repro.analysis.rules` — an AST lint
  engine with repo-specific rules (autograd safety, observability
  hygiene, inference throughput) and flake8-style ``# noqa: RPR###``
  suppression;
* :mod:`repro.analysis.races` — an Eraser-style lockset monitor that
  instruments classes under test and flags shared writes with no common
  lock, exporting observed lock-order edges;
* :mod:`repro.analysis.flow` (+ :mod:`repro.analysis.cfg`,
  :mod:`repro.analysis.contracts`) — per-function CFGs and
  interprocedural call-graph summaries powering the lock-order cycle
  check (RPR601), resource-balance checks (RPR602/603) and the metric
  naming/registry contract (RPR604).

All engines report through :class:`repro.analysis.findings.Finding`, with
text, JSONL and SARIF emitters, and the tier-1 test suite gates the tree
on ``lint`` and ``flow`` staying clean.
"""

from .cfg import CFG, Block, build_cfg, iter_functions
from .contracts import (
    MetricUse,
    RegistryEntry,
    check_contracts,
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
from .flow import FlowReport, LockOrderEdge, ProgramIndex, analyze_flow, build_index
from .lint import Rule, lint_paths, register, registered_rules
from .races import LocksetMonitor, RaceReport, write_order_edges_jsonl

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
    "write_order_edges_jsonl",
    "CFG",
    "Block",
    "build_cfg",
    "iter_functions",
    "FlowReport",
    "LockOrderEdge",
    "ProgramIndex",
    "analyze_flow",
    "build_index",
    "MetricUse",
    "RegistryEntry",
    "collect_metric_uses",
    "parse_registry",
    "check_contracts",
    "registry_markdown",
]
