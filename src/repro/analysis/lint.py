"""The AST lint engine: file walking, rule registry, ``noqa`` suppression.

Rules are small classes registered with :func:`register`; each gets a
parsed :class:`FileContext` (source, AST with parent links, suppression
map) and yields :class:`~repro.analysis.findings.Finding` records. The
engine is repo-aware rather than general-purpose: rules encode invariants
of *this* codebase (autograd discipline, observability hygiene, batched
forwards) that a generic linter cannot know.

Suppression mirrors flake8: a ``# noqa: RPR101`` comment on the flagged
line silences that rule there; bare ``# noqa`` silences every rule on the
line. Suppressions are deliberate, visible exceptions — the tier-1 gate
keeps everything else at zero.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Type

from .findings import Finding

__all__ = [
    "FileContext",
    "Rule",
    "register",
    "registered_rules",
    "iter_python_files",
    "lint_paths",
    "parent_of",
    "ancestors",
]

_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z]+[0-9]+(?:\s*,\s*[A-Z]+[0-9]+)*))?", re.I)

_PARENT_FIELD = "_repro_parent"


@dataclass
class FileContext:
    """Everything a rule needs about one parsed source file."""

    path: Path
    rel: str  # display path (relative to the lint root when possible)
    source: str
    tree: ast.Module
    # line -> None (blanket noqa) or the set of silenced rule ids.
    noqa: dict[int, set[str] | None] = field(default_factory=dict)

    def finding(
        self, rule: "Rule", node: ast.AST, message: str, **context: object
    ) -> Finding:
        """Build a lint finding located at ``node``."""
        return Finding(
            tool="lint",
            rule=rule.id,
            message=message,
            path=self.rel,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            context=dict(context),  # type: ignore[arg-type]
        )

    def suppressed(self, finding: Finding) -> bool:
        codes = self.noqa.get(finding.line, _MISSING)
        if codes is _MISSING:
            return False
        return codes is None or finding.rule in codes


_MISSING: object = object()


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`id` (``RPR###``), :attr:`name`, a one-line
    :attr:`description`, optionally :attr:`exclude` (path substrings the
    rule does not apply to, e.g. the autograd engine's own internals), and
    implement :meth:`check`.
    """

    id: str = ""
    name: str = ""
    description: str = ""
    exclude: tuple[str, ...] = ()

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def applies_to(self, ctx: FileContext) -> bool:
        normalized = ctx.rel.replace("\\", "/")
        return not any(fragment in normalized for fragment in self.exclude)


_REGISTRY: dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_cls.id:
        raise ValueError(f"rule {rule_cls.__name__} has no id")
    if rule_cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.id}")
    _REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def registered_rules() -> list[Rule]:
    """Fresh instances of every registered rule, ordered by id."""
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


# ----------------------------------------------------------------------
# AST helpers shared by rules
# ----------------------------------------------------------------------
def _link_parents(tree: ast.Module) -> None:
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            setattr(child, _PARENT_FIELD, node)


def parent_of(node: ast.AST) -> ast.AST | None:
    """Parent of ``node`` in its tree (engine-annotated)."""
    return getattr(node, _PARENT_FIELD, None)


def ancestors(node: ast.AST) -> Iterator[ast.AST]:
    """Yield ``node``'s ancestors, nearest first."""
    current = parent_of(node)
    while current is not None:
        yield current
        current = parent_of(current)


def _collect_noqa(source: str) -> dict[int, set[str] | None]:
    suppressions: dict[int, set[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if not match:
            continue
        codes = match.group("codes")
        if codes is None:
            suppressions[lineno] = None
        else:
            parsed = {code.strip().upper() for code in codes.split(",")}
            existing = suppressions.get(lineno, _MISSING)
            if existing is None:
                continue  # blanket noqa already covers the line
            if existing is _MISSING:
                suppressions[lineno] = parsed
            else:
                existing.update(parsed)  # type: ignore[union-attr]
    return suppressions


# ----------------------------------------------------------------------
# Engine entry points
# ----------------------------------------------------------------------
def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list."""
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if "__pycache__" in candidate.parts:
                    continue
                if any(part.startswith(".") for part in candidate.parts):
                    continue
                seen.add(candidate.resolve())
        elif path.suffix == ".py":
            seen.add(path.resolve())
    return sorted(seen)


def load_context(path: Path, root: Path | None = None) -> FileContext:
    """Parse one file into a rule-ready :class:`FileContext`."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    _link_parents(tree)
    rel = str(path)
    if root is not None:
        try:
            rel = str(path.relative_to(root.resolve()))
        except ValueError:
            rel = str(path)
    return FileContext(path=path, rel=rel, source=source, tree=tree, noqa=_collect_noqa(source))


def lint_paths(
    paths: Iterable[str | Path], rules: Iterable[Rule] | None = None
) -> list[Finding]:
    """Run ``rules`` (default: all registered) over ``paths``.

    Returns findings sorted by location, with ``noqa``-suppressed ones
    removed. Files that fail to parse yield a single ``RPR000`` finding
    rather than aborting the run.
    """
    from . import rules as _builtin_rules  # noqa - registers on import

    active = list(rules) if rules is not None else registered_rules()
    root = Path.cwd()
    findings: list[Finding] = []
    for file_path in iter_python_files(paths):
        try:
            ctx = load_context(file_path, root=root)
        except SyntaxError as error:
            findings.append(
                Finding(
                    tool="lint",
                    rule="RPR000",
                    message=f"file does not parse: {error.msg}",
                    path=str(file_path),
                    line=error.lineno or 0,
                )
            )
            continue
        for rule in active:
            if not rule.applies_to(ctx):
                continue
            for finding in rule.check(ctx):
                if not ctx.suppressed(finding):
                    findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
