"""Repo-specific lint rules (the ``RPR`` catalogue).

A rule earns its place by firing on a committed tree of this repository,
not only on its own fixtures.

* **RPR1xx — autograd safety.** The hand-rolled :class:`repro.nn.Tensor`
  exposes its raw numpy buffer as ``.data``; reading it from model or
  experiment code silently detaches the graph.
* **RPR3xx — observability hygiene.** Metric handles must be hoisted out
  of loops (``registry.counter(...)`` takes the registry lock per call).
* **RPR5xx — inference throughput.** An inference forward packs the
  real tokens of all its tables into one stream, so its token-wise GEMMs
  (embedding, Q/K/V/output projections, FFN) run once over every row;
  ``collate([one_table])`` inside a loop runs a one-table forward per
  iteration and gives up those packed GEMMs. Loops over tables should
  route through :class:`repro.sched.InferenceBatcher` (or, in training,
  collect encodings and collate once).

The metric contract is :mod:`repro.analysis.contracts`' job (RPR604);
shared writes with no common lock and the lock-acquisition order are the
dynamic :class:`~repro.analysis.races.LocksetMonitor`'s (RPR7xx).

Every rule can be silenced on a line with ``# noqa: RPR###`` — visible,
greppable exceptions instead of silent drift.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .findings import Finding
from .lint import FileContext, Rule, ancestors, register

__all__ = ["rule_catalogue"]


# ----------------------------------------------------------------------
# RPR1xx — autograd safety
# ----------------------------------------------------------------------
@register
class FloatOnData(Rule):
    id = "RPR101"
    name = "autograd-float-on-data"
    description = "float(x.data) hides whether x is scalar; use Tensor.item()"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
                and len(node.args) == 1
                and isinstance(node.args[0], ast.Attribute)
                and node.args[0].attr == "data"
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"float({ast.unparse(node.args[0])}) reads the raw autograd "
                    "buffer; use .item(), which asserts the tensor is scalar",
                )


@register
class DataSubscriptRead(Rule):
    id = "RPR104"
    name = "autograd-data-subscript"
    description = "indexing Tensor.data bypasses autograd; use .detach().numpy()"
    exclude = ("repro/nn/",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "data"
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"{ast.unparse(node)} indexes the raw autograd buffer; "
                    "use .detach().numpy()[...] to make the graph cut explicit",
                )


# ----------------------------------------------------------------------
# RPR3xx — observability hygiene
# ----------------------------------------------------------------------
@register
class MetricHandleInLoop(Rule):
    id = "RPR302"
    name = "metric-handle-in-loop"
    description = "metric get-or-create inside a loop; hoist the handle"

    _INSTRUMENTS = {"counter", "gauge", "histogram"}

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._INSTRUMENTS
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                continue
            in_loop = False
            for ancestor in ancestors(node):
                if isinstance(ancestor, (ast.For, ast.While, ast.AsyncFor)):
                    in_loop = True
                    break
                if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    break
            if in_loop:
                yield ctx.finding(
                    self,
                    node,
                    f"{ast.unparse(node.func)}({node.args[0].value!r}) "
                    "get-or-creates the series (registry lock + dict lookup) "
                    "every iteration; hoist the handle out of the loop",
                )


# ----------------------------------------------------------------------
# RPR5xx — inference throughput
# ----------------------------------------------------------------------
@register
class SingleItemCollateInLoop(Rule):
    id = "RPR501"
    name = "sched-single-item-collate-in-loop"
    description = (
        "collate([<one item>]) inside a loop runs a one-table forward per "
        "iteration and gives up the packed token-wise GEMMs; submit the "
        "chunks to repro.sched.InferenceBatcher, or collate them once"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and node.args
                and isinstance(node.args[0], ast.List)
                and len(node.args[0].elts) == 1
            ):
                continue
            if isinstance(node.func, ast.Name):
                func_name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                func_name = node.func.attr
            else:
                continue
            if func_name != "collate":
                continue
            in_loop = False
            for ancestor in ancestors(node):
                if isinstance(ancestor, (ast.For, ast.While, ast.AsyncFor)):
                    in_loop = True
                    break
                if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    break
            if in_loop:
                yield ctx.finding(
                    self,
                    node,
                    f"{ast.unparse(node.func)}([...]) with a single element "
                    "inside a loop runs one forward per item, each without "
                    "the packed token-wise GEMMs; submit the encodings to "
                    "repro.sched.InferenceBatcher (or collate them once)",
                )


def rule_catalogue() -> list[tuple[str, str, str]]:
    """``(id, name, description)`` for every registered rule (for docs/CLI)."""
    from .lint import registered_rules

    return [(rule.id, rule.name, rule.description) for rule in registered_rules()]
