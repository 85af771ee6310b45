"""Findings: the one record type every analysis engine emits.

A :class:`Finding` is a located, rule-tagged diagnostic. The lint engine,
the metric contract and the race detector all report through it, so the CLI
renders and exports them uniformly. The JSONL emitter follows the same
conventions as :mod:`repro.obs.export` (one JSON object per line, parents
created, a reader that round-trips), so findings artifacts can be diffed
across PRs with the same tooling that diffs trace artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

__all__ = [
    "Finding",
    "render_findings",
    "write_findings_jsonl",
    "read_findings_jsonl",
    "findings_to_sarif",
    "write_findings_sarif",
]


@dataclass(frozen=True)
class Finding:
    """One diagnostic from one analysis tool.

    Attributes
    ----------
    tool:
        Which engine produced it (``lint`` / ``contracts`` / ``races``).
    rule:
        Stable rule identifier (``RPR101`` ...); the suppression comment
        ``# noqa: RPR101`` refers to it.
    message:
        Human-readable description of the violation.
    path / line / col:
        Source location (``line`` 1-based, ``col`` 0-based). Findings not
        tied to a file (e.g. a config object checked at runtime) use an
        empty path and line 0.
    severity:
        ``error`` findings fail the CLI; ``warning`` findings do not.
    context:
        Free-form extra fields (offending symbol, config repr, threads).
    """

    tool: str
    rule: str
    message: str
    path: str = ""
    line: int = 0
    col: int = 0
    severity: str = "error"
    context: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-serializable)."""
        return {
            "tool": self.tool,
            "rule": self.rule,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
            "context": dict(self.context),
        }

    def format(self) -> str:
        """``path:line:col: RULE message`` (the grep-friendly text form)."""
        location = f"{self.path}:{self.line}:{self.col}: " if self.path else ""
        return f"{location}{self.rule} [{self.severity}] {self.message}"


def render_findings(findings: Iterable[Finding]) -> str:
    """Multi-line text report, one formatted finding per line."""
    lines = [finding.format() for finding in findings]
    if not lines:
        return "no findings"
    return "\n".join(lines)


def write_findings_jsonl(findings: Iterable[Finding], path: str | Path) -> Path:
    """Write one JSON object per finding; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for finding in findings:
            handle.write(json.dumps(finding.to_dict(), default=str) + "\n")
    return path


_SARIF_LEVELS = {"error": "error", "warning": "warning", "note": "note"}


def findings_to_sarif(findings: Iterable[Finding]) -> dict[str, Any]:
    """SARIF 2.1.0 log: one run per tool, rules deduplicated per run.

    The minimal-but-valid subset GitHub code scanning ingests: driver
    name, rule metadata, and one result per finding with a physical
    location. ``col`` is 0-based internally and 1-based in SARIF.
    """
    by_tool: dict[str, list[Finding]] = {}
    for finding in findings:
        by_tool.setdefault(finding.tool, []).append(finding)
    runs = []
    for tool in sorted(by_tool):
        tool_findings = by_tool[tool]
        rule_ids = sorted({f.rule for f in tool_findings})
        rule_index = {rule: i for i, rule in enumerate(rule_ids)}
        results = []
        for finding in tool_findings:
            result: dict[str, Any] = {
                "ruleId": finding.rule,
                "ruleIndex": rule_index[finding.rule],
                "level": _SARIF_LEVELS.get(finding.severity, "warning"),
                "message": {"text": finding.message},
            }
            if finding.path:
                region: dict[str, Any] = {"startLine": max(finding.line, 1)}
                if finding.col:
                    region["startColumn"] = finding.col + 1
                result["locations"] = [
                    {
                        "physicalLocation": {
                            "artifactLocation": {"uri": finding.path},
                            "region": region,
                        }
                    }
                ]
            if finding.context:
                result["properties"] = {
                    key: value for key, value in finding.context.items()
                }
            results.append(result)
        runs.append(
            {
                "tool": {
                    "driver": {
                        "name": f"repro-analyze/{tool}",
                        "informationUri": "https://example.invalid/repro-analyze",
                        "rules": [
                            {"id": rule, "name": rule} for rule in rule_ids
                        ],
                    }
                },
                "results": results,
            }
        )
    return {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
            "Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": runs,
    }


def write_findings_sarif(findings: Iterable[Finding], path: str | Path) -> Path:
    """Serialize :func:`findings_to_sarif` to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(findings_to_sarif(findings), indent=2, default=str) + "\n",
        encoding="utf-8",
    )
    return path


def read_findings_jsonl(path: str | Path) -> list[Finding]:
    """Load findings written by :func:`write_findings_jsonl`."""
    findings = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                record = json.loads(line)
                findings.append(
                    Finding(
                        tool=record["tool"],
                        rule=record["rule"],
                        message=record["message"],
                        path=record.get("path", ""),
                        line=int(record.get("line", 0)),
                        col=int(record.get("col", 0)),
                        severity=record.get("severity", "error"),
                        context=record.get("context", {}),
                    )
                )
    return findings
