"""CLI for the static-analysis toolkit.

::

    python -m repro.analysis lint src/            # AST lint (RPR rules)
    python -m repro.analysis races                # race-detector self-check
    python -m repro.analysis contracts src/       # metric/span contract (RPR604)
    python -m repro.analysis lint src/ --format jsonl --out findings.jsonl
    python -m repro.analysis contracts src/ --format sarif --out contracts.sarif

Every subcommand shares the reporting surface: ``--format
text|jsonl|sarif`` for stdout and ``--out`` to also archive the findings
(JSONL unless the path ends in ``.sarif``). Exit status is 0 when no
finding was produced and 1 on any finding, warnings included (a stale
``docs/metrics.md`` row is a warning) — suitable as a CI gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .findings import (
    Finding,
    findings_to_sarif,
    render_findings,
    write_findings_jsonl,
    write_findings_sarif,
)
from .lint import lint_paths, registered_rules

__all__ = ["main"]


def _emit(findings: list[Finding], fmt: str, out: str | None) -> None:
    if fmt == "jsonl":
        for finding in findings:
            print(json.dumps(finding.to_dict(), default=str))
    elif fmt == "sarif":
        print(json.dumps(findings_to_sarif(findings), indent=2, default=str))
    else:
        print(render_findings(findings))
    if out is not None:
        if str(out).endswith(".sarif"):
            path = write_findings_sarif(findings, out)
        else:
            path = write_findings_jsonl(findings, out)
        print(f"wrote {len(findings)} findings to {path}", file=sys.stderr)


def _exit_code(findings: list[Finding]) -> int:
    return 1 if findings else 0


def _add_common(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--format", choices=("text", "jsonl", "sarif"), default="text"
    )
    subparser.add_argument(
        "--out",
        default=None,
        help="also write findings here (SARIF if the path ends in .sarif, JSONL otherwise)",
    )


def _report(findings: list[Finding], args: argparse.Namespace) -> int:
    """Emission + exit code, shared by every command."""
    _emit(findings, args.format, args.out)
    return _exit_code(findings)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Repo-aware analysis: lint, race-detector self-check and "
            "the metric/span contract."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    lint_parser = subparsers.add_parser("lint", help="run the AST lint rules")
    lint_parser.add_argument("paths", nargs="*", default=["src"])
    _add_common(lint_parser)
    lint_parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )

    races_parser = subparsers.add_parser(
        "races", help="self-check the lockset race detector"
    )
    _add_common(races_parser)

    contracts_parser = subparsers.add_parser(
        "contracts",
        help="metric/span contract: naming, kind consistency, registry diff",
    )
    contracts_parser.add_argument("paths", nargs="*", default=["src"])
    _add_common(contracts_parser)
    contracts_parser.add_argument(
        "--registry",
        default="docs/metrics.md",
        help="committed metric inventory to diff against",
    )
    contracts_parser.add_argument(
        "--update-registry",
        action="store_true",
        help="regenerate the registry from the emitted-name scan and exit",
    )

    args = parser.parse_args(argv)

    if args.command == "lint":
        from . import rules as _rules  # noqa: F401 - ensure registration

        if args.list_rules:
            for rule in registered_rules():
                print(f"{rule.id}  {rule.name:<28} {rule.description}")
            return 0
        return _report(lint_paths(args.paths), args)

    if args.command == "races":
        from .races import self_check

        findings = list(self_check())
        code = _report(findings, args)
        if not findings:
            print(
                "race-detector self-check passed: injected race flagged, "
                "guarded class clean",
                file=sys.stderr,
            )
        return code

    if args.command == "contracts":
        from pathlib import Path

        from .contracts import (
            check_tree,
            collect_metric_uses,
            parse_registry,
            registry_markdown,
        )

        if args.update_registry:
            uses = collect_metric_uses(args.paths)
            target = Path(args.registry)
            existing = parse_registry(target) if target.exists() else {}
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(registry_markdown(uses, existing), encoding="utf-8")
            print(
                f"wrote {target} ({len({u.name for u in uses})} names)",
                file=sys.stderr,
            )
            return 0
        return _report(check_tree(args.paths, args.registry), args)

    parser.error(f"unknown command {args.command!r}")
    return 2  # pragma: no cover - parser.error raises


if __name__ == "__main__":
    raise SystemExit(main())
