"""The metric/span naming contract (rule RPR604).

Every metric series and tracer span this codebase emits is created with a
string literal (or an f-string whose static skeleton is a literal) at the
call site — ``registry.counter("db.pool.exhausted")``,
``tracer.span(f"stage.{name}")``. That makes the full observability
surface statically enumerable, so it can be *contracted*:

* **conformance** — names are lowercase dotted paths
  (``subsystem.thing[_detail]``); metrics need at least two segments so a
  dashboard can group by subsystem; dynamic f-string segments appear as
  ``*``;
* **consistency** — one name is one instrument kind; registering
  ``x`` as a counter here and a gauge there raises at runtime
  (:class:`~repro.obs.metrics.MetricsRegistry` enforces it per process,
  this check enforces it across the whole tree);
* **registry** — every emitted name (and its label keys) must appear in
  the committed inventory ``docs/metrics.md``, so a new metric cannot
  ship undocumented and a renamed one cannot leave a stale doc behind.

:func:`check_tree` runs all three over a source tree, which is what
``python -m repro.analysis contracts`` runs; :func:`registry_markdown`
regenerates the inventory tables from the emitted-name scan (preserving
hand-written descriptions), which is what ``--update-registry`` runs.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .findings import Finding
from .lint import iter_python_files

__all__ = [
    "MetricUse",
    "RegistryEntry",
    "collect_metric_uses",
    "parse_registry",
    "check_contracts",
    "check_tree",
    "registry_markdown",
]

_INSTRUMENT_METHODS = {"counter", "gauge", "histogram", "span", "interval"}
# ``Tracer.interval(name, started, ended, parent=..., **attrs)`` records an
# already-finished span cross-thread; it contributes to the span namespace.
_INSTRUMENT_KINDS = {"interval": "span"}
# ``histogram(name, buckets=..., **labels)``: buckets is a parameter, not a label.
_NON_LABEL_KWARGS = {
    "histogram": {"buckets"},
    "span": set(),
    "interval": {"started", "ended", "parent"},
}
# The substrate itself (and its tests-of-itself) defines these calls.
_EXCLUDED_PATH_PARTS = ("repro/obs/",)

_METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.([a-z][a-z0-9_]*|\*))+$")
_SPAN_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.([a-z][a-z0-9_]*|\*))*$")

_ROW_RE = re.compile(r"^\|\s*`(?P<name>[^`]+)`\s*\|(?P<rest>.*)$")


@dataclass(frozen=True)
class MetricUse:
    """One static emission site of a metric series or span name."""

    name: str  # dotted name; dynamic f-string parts collapsed to ``*``
    kind: str  # counter | gauge | histogram | span
    labels: tuple[str, ...]
    path: str
    line: int
    col: int


@dataclass
class RegistryEntry:
    """One row of the committed ``docs/metrics.md`` inventory."""

    name: str
    kind: str
    labels: tuple[str, ...] = ()
    description: str = ""


# ----------------------------------------------------------------------
# Collection
# ----------------------------------------------------------------------
def _literal_name(node: ast.expr) -> str | None:
    """Resolve a name argument statically; f-string holes become ``*``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        parts: list[str] = []
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                parts.append(value.value)
            else:
                parts.append("*")
        return "".join(parts)
    return None


def collect_metric_uses(
    paths: Iterable[str | Path], root: Path | None = None
) -> list[MetricUse]:
    """Scan ``paths`` for metric/span creations with static names."""
    root = root if root is not None else Path.cwd()
    uses: list[MetricUse] = []
    for file_path in iter_python_files(paths):
        rel = str(file_path)
        try:
            rel = str(file_path.relative_to(root.resolve()))
        except ValueError:
            pass
        normalized = rel.replace("\\", "/")
        if any(part in normalized for part in _EXCLUDED_PATH_PARTS):
            continue
        try:
            tree = ast.parse(file_path.read_text(encoding="utf-8"), filename=rel)
        except SyntaxError:
            continue  # the lint engine reports RPR000 for these
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _INSTRUMENT_METHODS
                and node.args
            ):
                continue
            name = _literal_name(node.args[0])
            if name is None:
                continue
            method = node.func.attr
            kind = _INSTRUMENT_KINDS.get(method, method)
            skip = _NON_LABEL_KWARGS.get(method, set())
            labels = tuple(
                sorted(
                    kw.arg
                    for kw in node.keywords
                    if kw.arg is not None and kw.arg not in skip
                )
            )
            uses.append(
                MetricUse(
                    name=name,
                    kind=kind,
                    labels=labels,
                    path=rel,
                    line=node.lineno,
                    col=node.col_offset,
                )
            )
    return uses


# ----------------------------------------------------------------------
# Registry parsing
# ----------------------------------------------------------------------
def parse_registry(path: str | Path) -> dict[str, RegistryEntry]:
    """Parse the markdown inventory: any table row whose first cell is a
    backticked name. Columns: name | kind | labels | description."""
    entries: dict[str, RegistryEntry] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        match = _ROW_RE.match(line.strip())
        if not match:
            continue
        cells = [cell.strip() for cell in match.group("rest").split("|")]
        kind = cells[0] if cells else ""
        if kind in ("", "---", ":---", "kind"):
            continue  # header / separator rows
        raw_labels = cells[1] if len(cells) > 1 else ""
        labels = tuple(
            sorted(
                part.strip().strip("`")
                for part in raw_labels.split(",")
                if part.strip() and part.strip() not in ("—", "-")
            )
        )
        description = cells[2] if len(cells) > 2 else ""
        name = match.group("name")
        entries[name] = RegistryEntry(name, kind, labels, description)
    return entries


# ----------------------------------------------------------------------
# The checks
# ----------------------------------------------------------------------
def _finding(rule_message: str, use: MetricUse, severity: str = "error", **context) -> Finding:
    return Finding(
        tool="contracts",
        rule="RPR604",
        message=rule_message,
        path=use.path,
        line=use.line,
        col=use.col,
        severity=severity,
        context={"name": use.name, "kind": use.kind, "anchor": f"{use.kind}:{use.name}", **context},
    )


def check_contracts(
    uses: list[MetricUse],
    registry: dict[str, RegistryEntry] | None,
    registry_path: str | None = None,
) -> list[Finding]:
    """Run conformance, consistency and registry checks over ``uses``.

    ``registry=None`` skips the documentation diff (library callers that
    only want naming checks); an empty dict means "a registry exists and
    documents nothing", so every emitted name is flagged.
    """
    findings: list[Finding] = []
    # Conformance.
    for use in uses:
        pattern = _SPAN_NAME_RE if use.kind == "span" else _METRIC_NAME_RE
        if not pattern.match(use.name):
            hint = (
                "lowercase dotted segments, at least subsystem.name"
                if use.kind != "span"
                else "lowercase dotted segments"
            )
            findings.append(
                _finding(
                    f"{use.kind} name {use.name!r} violates the naming scheme ({hint})",
                    use,
                )
            )
    # Consistency: one name, one instrument kind (spans are a namespace apart).
    by_name: dict[tuple[bool, str], dict[str, MetricUse]] = {}
    for use in uses:
        kinds = by_name.setdefault((use.kind == "span", use.name), {})
        kinds.setdefault(use.kind, use)
    for (_, name), kinds in sorted(by_name.items()):
        if len(kinds) > 1:
            where = ", ".join(
                f"{kind} at {use.path}:{use.line}" for kind, use in sorted(kinds.items())
            )
            first = min(kinds.values(), key=lambda use: (use.path, use.line))
            findings.append(
                _finding(
                    f"metric {name!r} is registered as multiple instrument "
                    f"kinds ({where}); MetricsRegistry raises on the second",
                    first,
                    conflict=sorted(kinds),
                )
            )
    if registry is None:
        return findings
    # Registry diff: every emitted name documented, with a superset of labels.
    registry_name = registry_path or "docs/metrics.md"
    seen_names: set[str] = set()
    reported: set[tuple[str, str]] = set()
    for use in uses:
        seen_names.add(use.name)
        entry = registry.get(use.name)
        key = (use.kind, use.name)
        if entry is None:
            if key not in reported:
                reported.add(key)
                findings.append(
                    _finding(
                        f"{use.kind} {use.name!r} is not documented in "
                        f"{registry_name}; add a row (or run "
                        "`repro-analyze contracts --update-registry`)",
                        use,
                    )
                )
            continue
        if entry.kind != use.kind and (key, "kind") not in reported:
            reported.add((key, "kind"))  # type: ignore[arg-type]
            findings.append(
                _finding(
                    f"{use.name!r} is documented as a {entry.kind} in "
                    f"{registry_name} but emitted as a {use.kind}",
                    use,
                )
            )
        undocumented_labels = set(use.labels) - set(entry.labels)
        if undocumented_labels and (key, "labels") not in reported:
            reported.add((key, "labels"))  # type: ignore[arg-type]
            findings.append(
                _finding(
                    f"{use.kind} {use.name!r} is emitted with label(s) "
                    f"{sorted(undocumented_labels)} not documented in {registry_name}",
                    use,
                    labels=sorted(undocumented_labels),
                )
            )
    for name, entry in sorted(registry.items()):
        if name not in seen_names:
            findings.append(
                Finding(
                    tool="contracts",
                    rule="RPR604",
                    message=(
                        f"{entry.kind or 'metric'} {name!r} is documented in "
                        f"{registry_name} but never emitted; delete the stale row"
                    ),
                    path=registry_name,
                    severity="warning",
                    context={"name": name, "anchor": f"stale:{name}"},
                )
            )
    return findings


def check_tree(
    paths: Iterable[str | Path],
    registry_path: str | Path,
    root: Path | None = None,
) -> list[Finding]:
    """Check every metric/span emitted under ``paths`` against the registry.

    A ``registry_path`` that does not exist yields one finding telling the
    caller to create it (naming and consistency checks still run).
    """
    uses = collect_metric_uses(paths, root=root)
    registry_name = str(registry_path)
    registry = None
    findings: list[Finding] = []
    if Path(registry_path).exists():
        registry = parse_registry(registry_path)
    else:
        findings.append(
            Finding(
                tool="contracts",
                rule="RPR604",
                message=(
                    f"metric registry {registry_name} does not exist; create "
                    "it with `repro-analyze contracts --update-registry`"
                ),
                path=registry_name,
                context={"anchor": "registry-missing"},
            )
        )
    findings.extend(check_contracts(uses, registry, registry_name))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


# ----------------------------------------------------------------------
# Registry generation
# ----------------------------------------------------------------------
_HEADER = """# Metrics & span registry

The contracted observability surface of the tree: every metric series and
tracer span emitted under ``src/``, as enforced by rule **RPR604**
(``python -m repro.analysis contracts``). Dynamic name segments (f-string
holes) appear as ``*``. To add a metric: emit it, then document it here —
``repro-analyze contracts --update-registry`` regenerates the tables in place,
preserving descriptions.
"""


def registry_markdown(
    uses: list[MetricUse], existing: dict[str, RegistryEntry] | None = None
) -> str:
    """Render the inventory tables from an emitted-name scan.

    Descriptions are carried over from ``existing`` rows by name so a
    regeneration never erases hand-written documentation.
    """
    existing = existing or {}
    merged: dict[str, RegistryEntry] = {}
    for use in uses:
        entry = merged.get(use.name)
        if entry is None:
            old = existing.get(use.name)
            merged[use.name] = RegistryEntry(
                name=use.name,
                kind=use.kind,
                labels=use.labels,
                description=old.description if old is not None else "",
            )
        else:
            entry.labels = tuple(sorted(set(entry.labels) | set(use.labels)))
    lines = [_HEADER]
    metrics = sorted(
        (e for e in merged.values() if e.kind != "span"), key=lambda e: e.name
    )
    spans = sorted(
        (e for e in merged.values() if e.kind == "span"), key=lambda e: e.name
    )
    if metrics:
        lines += ["## Metrics", "", "| name | kind | labels | description |",
                  "| --- | --- | --- | --- |"]
        for entry in metrics:
            labels = ", ".join(f"`{label}`" for label in entry.labels) or "—"
            lines.append(
                f"| `{entry.name}` | {entry.kind} | {labels} | {entry.description} |"
            )
        lines.append("")
    if spans:
        lines += ["## Spans", "", "| name | kind | labels | description |",
                  "| --- | --- | --- | --- |"]
        for entry in spans:
            labels = ", ".join(f"`{label}`" for label in entry.labels) or "—"
            lines.append(
                f"| `{entry.name}` | span | {labels} | {entry.description} |"
            )
        lines.append("")
    return "\n".join(lines)
