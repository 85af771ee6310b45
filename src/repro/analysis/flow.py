"""Whole-program flow analyses: lock order, resource balance, contracts.

This is the interprocedural layer on top of :mod:`repro.analysis.cfg`.
It indexes every analyzed module (classes, methods, lock attributes,
lightweight type facts from annotations and constructor calls), builds a
name-and-type-resolved call graph, computes per-function *lock summaries*
(the set of named locks a call may acquire, RacerD-style), and runs three
analyses:

* **RPR601 — lock-order cycles.** Every ``with <lock>:`` block
  contributes edges ``held -> acquired`` for each lock acquired inside
  it, directly or through any resolved call (using the callee's
  summary). A cycle in the resulting global lock-order graph is a
  potential deadlock. The same edge schema is exported by the dynamic
  :class:`~repro.analysis.races.LocksetMonitor`
  (``source: "static" | "dynamic"``), so static and observed orders diff
  mechanically.
* **RPR602 — resource balance.** On every CFG path, a connection taken
  with ``<pool>.acquire()`` must reach a ``release()``/``close()`` (or
  ownership must transfer: stored on ``self`` or returned), and a
  ``tracer.span()`` must be entered as a context manager (or explicitly
  closed) — a span that is created and dropped records nothing, one that
  is entered on some paths only unbalances the trace tree.
* **RPR603 — abandoned batch futures.** Futures from
  ``batcher.submit()/submit_many()`` must be resolved (``.result()``),
  returned, or handed off on every path; a path that drops them silently
  loses the submitted work's errors.
* **RPR604** (in :mod:`repro.analysis.contracts`) — metric naming and
  the committed ``docs/metrics.md`` inventory.

Call resolution is deliberately *under*-approximate: ``self.m()``
resolves inside the class, ``x.m()`` only when ``x``'s class is known
from an annotation or a visible constructor call. Unresolvable calls
contribute no edges — fewer false cycles at the cost of possibly missing
exotic ones, the same trade RacerD makes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from .cfg import CFG, build_cfg, iter_functions
from .contracts import check_contracts, collect_metric_uses, parse_registry
from .findings import Finding
from .lint import iter_python_files

__all__ = [
    "FlowReport",
    "LockOrderEdge",
    "ProgramIndex",
    "analyze_flow",
    "build_index",
]

_LOCK_FACTORIES = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
_RELEASE_METHODS = {"release", "close", "shutdown", "__exit__"}
_CONSUME_METHODS = {"result", "cancel", "abandon"}
# Paths the flow analyses do not apply to: the tracing substrate itself
# (its factory methods *construct* spans) and this package's own fixtures.
_SPAN_EXCLUDE = ("repro/obs/",)


# ----------------------------------------------------------------------
# Program index
# ----------------------------------------------------------------------
@dataclass
class FunctionInfo:
    qualname: str  # "Class.method" / "func" / "Class.method.inner"
    node: "ast.FunctionDef | ast.AsyncFunctionDef"
    module: "ModuleInfo"
    cls: "ClassInfo | None" = None


@dataclass
class ClassInfo:
    name: str
    node: ast.ClassDef
    module: "ModuleInfo"
    lock_attrs: set[str] = field(default_factory=set)
    # self.<attr> -> candidate class names (from annotations/constructors).
    attr_types: dict[str, tuple[str, ...]] = field(default_factory=dict)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    path: Path
    rel: str
    tree: ast.Module
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass(frozen=True)
class LockOrderEdge:
    """One ``held -> acquired`` pair, with a witness location."""

    src: str
    dst: str
    path: str
    line: int
    via: str  # "with-nesting" or the callee qualname that acquires dst

    def to_dict(self, source: str = "static") -> dict:
        return {
            "from": self.src,
            "to": self.dst,
            "path": self.path,
            "line": self.line,
            "via": self.via,
            "source": source,
        }


class ProgramIndex:
    """Classes, functions, lock attributes and type facts for one tree."""

    def __init__(self) -> None:
        self.modules: list[ModuleInfo] = []
        self.classes: dict[str, list[ClassInfo]] = {}
        self.functions: dict[str, list[FunctionInfo]] = {}

    def add_module(self, module: ModuleInfo) -> None:
        self.modules.append(module)
        for name, cls in module.classes.items():
            self.classes.setdefault(name, []).append(cls)
        for name, func in module.functions.items():
            self.functions.setdefault(name, []).append(func)

    def class_named(self, name: str) -> ClassInfo | None:
        candidates = self.classes.get(name)
        return candidates[0] if candidates else None

    def iter_all_functions(self):
        for module in self.modules:
            for qualname, node in iter_functions(module.tree):
                cls = None
                head = qualname.split(".", 1)[0]
                if head in module.classes:
                    cls = module.classes[head]
                yield FunctionInfo(qualname=qualname, node=node, module=module, cls=cls)


def _annotation_classes(annotation: ast.expr | None) -> tuple[str, ...]:
    """Candidate class names out of an annotation expression.

    ``A | B | None`` -> (A, B); ``Optional[A]`` -> (A,); containers like
    ``list[A]`` resolve to nothing (their elements are not the receiver).
    """
    if annotation is None:
        return ()
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return ()
    if isinstance(annotation, ast.Name):
        return (annotation.id,)
    if isinstance(annotation, ast.Attribute):
        return (annotation.attr,)
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        left = tuple(n for n in _annotation_classes(annotation.left) if n != "None")
        right = tuple(n for n in _annotation_classes(annotation.right) if n != "None")
        return left + right
    if isinstance(annotation, ast.Subscript):
        base = _annotation_classes(annotation.value)
        if base and base[0] in ("Optional", "Union"):
            inner = annotation.slice
            elements = inner.elts if isinstance(inner, ast.Tuple) else [inner]
            out: list[str] = []
            for element in elements:
                out.extend(n for n in _annotation_classes(element) if n != "None")
            return tuple(out)
        return ()
    return ()


def _is_lock_factory_call(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else ""
    )
    return name in _LOCK_FACTORIES


def _constructor_classes(node: ast.expr, index: "ProgramIndex") -> tuple[str, ...]:
    """Class names a value expression may construct (``C(...)``,
    ``C(...) if p else D(...)``, ``a or C(...)``)."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in index.classes:
            return (node.func.id,)
        return ()
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in index.classes:
            return (node.func.attr,)
        return ()
    if isinstance(node, ast.IfExp):
        return _constructor_classes(node.body, index) + _constructor_classes(
            node.orelse, index
        )
    if isinstance(node, ast.BoolOp):
        out: list[str] = []
        for value in node.values:
            out.extend(_constructor_classes(value, index))
        return tuple(out)
    return ()


def _index_class(cls_node: ast.ClassDef, module: ModuleInfo, index: ProgramIndex) -> ClassInfo:
    info = ClassInfo(name=cls_node.name, node=cls_node, module=module)
    # Dataclass-style annotated fields.
    for stmt in cls_node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            annotation = ast.unparse(stmt.annotation)
            if any(factory in annotation for factory in _LOCK_FACTORIES):
                info.lock_attrs.add(stmt.target.id)
            else:
                classes = _annotation_classes(stmt.annotation)
                if classes:
                    info.attr_types[stmt.target.id] = classes
    # Assignments in any method (usually __init__/__post_init__). A value
    # that is a bare parameter name inherits the parameter's annotation,
    # so ``self.batcher = batcher`` with ``batcher: InferenceBatcher |
    # None`` types the attribute.
    for method in cls_node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params: dict[str, tuple[str, ...]] = {}
        arguments = method.args
        for arg in [*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs]:
            classes = _annotation_classes(arg.annotation)
            if classes:
                params[arg.arg] = classes
        for node in ast.walk(method):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                if _is_lock_factory_call(node.value):
                    info.lock_attrs.add(target.attr)
                    continue
                classes = _constructor_classes(node.value, index)
                if not classes and isinstance(node.value, ast.Name):
                    classes = params.get(node.value.id, ())
                if classes and target.attr not in info.attr_types:
                    info.attr_types[target.attr] = classes
    for stmt in cls_node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.methods[stmt.name] = FunctionInfo(
                qualname=f"{cls_node.name}.{stmt.name}",
                node=stmt,
                module=module,
                cls=info,
            )
    return info


def build_index(paths, root: Path | None = None) -> ProgramIndex:
    """Parse every file under ``paths`` into a :class:`ProgramIndex`."""
    root = root if root is not None else Path.cwd()
    index = ProgramIndex()
    modules: list[tuple[Path, str, ast.Module]] = []
    for file_path in iter_python_files(paths):
        rel = str(file_path)
        try:
            rel = str(file_path.relative_to(root.resolve()))
        except ValueError:
            pass
        try:
            tree = ast.parse(file_path.read_text(encoding="utf-8"), filename=rel)
        except SyntaxError:
            continue  # lint reports RPR000
        modules.append((file_path, rel.replace("\\", "/"), tree))
    # Two passes: class-name universe first, then attribute typing (so
    # ``self.latents = LatentCache(...)`` resolves across modules).
    infos: list[ModuleInfo] = []
    for file_path, rel, tree in modules:
        info = ModuleInfo(path=file_path, rel=rel, tree=tree)
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                index.classes.setdefault(stmt.name, [])
        infos.append(info)
    for info in infos:
        for stmt in info.tree.body:
            if isinstance(stmt, ast.ClassDef):
                info.classes[stmt.name] = _index_class(stmt, info, index)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.functions[stmt.name] = FunctionInfo(
                    qualname=stmt.name, node=stmt, module=info
                )
        index.add_module(info)
    # Rebuild the by-name class map with the real infos.
    index.classes = {}
    for info in infos:
        for name, cls in info.classes.items():
            index.classes.setdefault(name, []).append(cls)
    return index


# ----------------------------------------------------------------------
# Local type environment and call resolution
# ----------------------------------------------------------------------
class _TypeEnv:
    """Per-function map of names to candidate class names."""

    def __init__(self, func: FunctionInfo, index: ProgramIndex, parent: "_TypeEnv | None" = None):
        self.index = index
        self.func = func
        self.names: dict[str, tuple[str, ...]] = dict(parent.names) if parent else {}
        self.local_locks: dict[str, str] = dict(parent.local_locks) if parent else {}
        args = func.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            classes = _annotation_classes(arg.annotation)
            if classes:
                self.names[arg.arg] = classes
        self._scan_assignments(func.node)

    def _scan_assignments(self, node: ast.AST) -> None:
        for stmt in ast.walk(node):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and stmt is not node:
                continue  # nested functions build their own env
            if not isinstance(stmt, ast.Assign):
                continue
            for target in stmt.targets:
                if not isinstance(target, ast.Name):
                    continue
                if _is_lock_factory_call(stmt.value):
                    self.local_locks[target.id] = (
                        f"{self.func.qualname}.{target.id}"
                    )
                    continue
                classes = self.expr_types(stmt.value)
                if classes:
                    existing = self.names.get(target.id, ())
                    self.names[target.id] = tuple(dict.fromkeys(existing + classes))

    # ------------------------------------------------------------------
    def expr_types(self, node: ast.expr) -> tuple[str, ...]:
        """Candidate class names for an expression (may be empty)."""
        if isinstance(node, ast.Name):
            if node.id == "self" and self.func.cls is not None:
                return (self.func.cls.name,)
            if node.id in self.names:
                return self.names[node.id]
            return _constructor_classes(node, self.index)
        if isinstance(node, ast.Attribute):
            for owner_name in self.expr_types(node.value):
                owner = self.index.class_named(owner_name)
                if owner is not None and node.attr in owner.attr_types:
                    return owner.attr_types[node.attr]
            return ()
        if isinstance(node, ast.Call):
            for callee in self.resolve_call(node):
                classes = _annotation_classes(callee.node.returns)
                if classes:
                    return tuple(n for n in classes if n != "None")
            return _constructor_classes(node, self.index)
        if isinstance(node, (ast.IfExp, ast.BoolOp)):
            return _constructor_classes(node, self.index)
        return ()

    def resolve_call(self, call: ast.Call) -> list[FunctionInfo]:
        """Resolve a call to function definitions; empty when unknown."""
        func = call.func
        if isinstance(func, ast.Name):
            # Module-level function in the analyzed tree (same module first).
            local = self.func.module.functions.get(func.id)
            if local is not None:
                return [local]
            candidates = self.index.functions.get(func.id)
            if candidates:
                return list(candidates)
            # Constructor: resolve to __init__ (lock effects of construction).
            cls = self.index.class_named(func.id)
            if cls is not None and "__init__" in cls.methods:
                return [cls.methods["__init__"]]
            return []
        if isinstance(func, ast.Attribute):
            receivers = self.expr_types(func.value)
            resolved: list[FunctionInfo] = []
            for receiver in receivers:
                cls = self.index.class_named(receiver)
                if cls is not None and func.attr in cls.methods:
                    resolved.append(cls.methods[func.attr])
            return resolved
        return []

    # ------------------------------------------------------------------
    def lock_id(self, expr: ast.expr) -> str | None:
        """Resolve a ``with`` item (or lock expression) to a lock id."""
        if isinstance(expr, ast.Name):
            return self.local_locks.get(expr.id)
        if isinstance(expr, ast.Attribute):
            for owner_name in self.expr_types(expr.value):
                owner = self.index.class_named(owner_name)
                if owner is not None and expr.attr in owner.lock_attrs:
                    return f"{owner.name}.{expr.attr}"
            return None
        if isinstance(expr, ast.Call):
            # ``with self._lock.acquire_timeout(...):`` style helpers.
            if isinstance(expr.func, ast.Attribute):
                return self.lock_id(expr.func.value)
        return None


# ----------------------------------------------------------------------
# Lock summaries and the lock-order graph (RPR601)
# ----------------------------------------------------------------------
class _LockAnalysis:
    def __init__(self, index: ProgramIndex) -> None:
        self.index = index
        self.functions: list[FunctionInfo] = []
        self.envs: dict[int, _TypeEnv] = {}
        for module in index.modules:
            for qualname, node in iter_functions(module.tree):
                cls = None
                head = qualname.split(".", 1)[0]
                if head in module.classes:
                    cls = module.classes[head]
                self.functions.append(
                    FunctionInfo(qualname=qualname, node=node, module=module, cls=cls)
                )
        # Key summaries by the function AST node id (qualnames collide
        # across modules; nodes never do).
        self.summaries: dict[int, set[str]] = {}
        self.direct: dict[int, set[str]] = {}
        self.calls: dict[int, list[FunctionInfo]] = {}

    def env_for(self, func: FunctionInfo) -> _TypeEnv:
        env = self.envs.get(id(func.node))
        if env is None:
            parent_env = None
            if "." in func.qualname:
                # Nested function: inherit the nearest enclosing function's
                # env so closure locals (e.g. a shared Condition) resolve.
                parent_qual = func.qualname.rsplit(".", 1)[0]
                for candidate in self.functions:
                    if (
                        candidate.module is func.module
                        and candidate.qualname == parent_qual
                    ):
                        parent_env = self.env_for(candidate)
                        break
            env = _TypeEnv(func, self.index, parent=parent_env)
            self.envs[id(func.node)] = env
        return env

    # ------------------------------------------------------------------
    def _direct_effects(self, func: FunctionInfo) -> tuple[set[str], list[FunctionInfo]]:
        """Locks acquired directly in ``func`` plus resolved callees."""
        env = self.env_for(func)
        locks: set[str] = set()
        callees: list[FunctionInfo] = []
        for node in ast.walk(func.node):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not func.node:
                continue
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    lock = env.lock_id(item.context_expr)
                    if lock is not None:
                        locks.add(lock)
            elif isinstance(node, ast.Call):
                callees.extend(env.resolve_call(node))
        return locks, callees

    def compute_summaries(self) -> None:
        for func in self.functions:
            locks, callees = self._direct_effects(func)
            self.direct[id(func.node)] = locks
            self.calls[id(func.node)] = callees
            self.summaries[id(func.node)] = set(locks)
        changed = True
        while changed:
            changed = False
            for func in self.functions:
                summary = self.summaries[id(func.node)]
                before = len(summary)
                for callee in self.calls[id(func.node)]:
                    summary |= self.summaries.get(id(callee.node), set())
                if len(summary) != before:
                    changed = True

    # ------------------------------------------------------------------
    def _edges_in_with(
        self, func: FunctionInfo, env: _TypeEnv, with_node, held: str
    ) -> list[LockOrderEdge]:
        edges: list[LockOrderEdge] = []
        for node in ast.walk(with_node):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, (ast.With, ast.AsyncWith)) and node is not with_node:
                for item in node.items:
                    inner = env.lock_id(item.context_expr)
                    if inner is not None and inner != held:
                        edges.append(
                            LockOrderEdge(
                                src=held,
                                dst=inner,
                                path=func.module.rel,
                                line=node.lineno,
                                via="with-nesting",
                            )
                        )
            elif isinstance(node, ast.Call):
                for callee in env.resolve_call(node):
                    for lock in sorted(self.summaries.get(id(callee.node), ())):
                        if lock != held:
                            edges.append(
                                LockOrderEdge(
                                    src=held,
                                    dst=lock,
                                    path=func.module.rel,
                                    line=node.lineno,
                                    via=callee.qualname,
                                )
                            )
        return edges

    def lock_order_edges(self) -> list[LockOrderEdge]:
        self.compute_summaries()
        edges: dict[tuple[str, str], LockOrderEdge] = {}
        for func in self.functions:
            env = self.env_for(func)
            for node in ast.walk(func.node):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not func.node:
                    continue
                if not isinstance(node, (ast.With, ast.AsyncWith)):
                    continue
                for item in node.items:
                    held = env.lock_id(item.context_expr)
                    if held is None:
                        continue
                    for edge in self._edges_in_with(func, env, node, held):
                        edges.setdefault((edge.src, edge.dst), edge)
        return sorted(edges.values(), key=lambda e: (e.src, e.dst))


def _find_cycles(edges: list[LockOrderEdge]) -> list[list[LockOrderEdge]]:
    """Strongly connected components with >1 node (or a self-loop), each
    reported as the list of its internal edges."""
    graph: dict[str, set[str]] = {}
    by_pair: dict[tuple[str, str], LockOrderEdge] = {}
    for edge in edges:
        graph.setdefault(edge.src, set()).add(edge.dst)
        graph.setdefault(edge.dst, set())
        by_pair[(edge.src, edge.dst)] = edge

    # Tarjan, iterative.
    index_counter = [0]
    stack: list[str] = []
    lowlink: dict[str, int] = {}
    number: dict[str, int] = {}
    on_stack: set[str] = set()
    components: list[list[str]] = []

    def strongconnect(root: str) -> None:
        work = [(root, iter(sorted(graph[root])))]
        number[root] = lowlink[root] = index_counter[0]
        index_counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in number:
                    number[succ] = lowlink[succ] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph[succ]))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], number[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == number[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)

    for node in sorted(graph):
        if node not in number:
            strongconnect(node)

    cycles: list[list[LockOrderEdge]] = []
    for component in components:
        members = set(component)
        internal = [
            by_pair[(a, b)]
            for (a, b) in sorted(by_pair)
            if a in members and b in members
        ]
        if len(component) > 1:
            cycles.append(internal)
        elif (component[0], component[0]) in by_pair:
            cycles.append([by_pair[(component[0], component[0])]])
    return cycles


# ----------------------------------------------------------------------
# Resource balance on the CFG (RPR602 / RPR603)
# ----------------------------------------------------------------------
def _call_attr(node: ast.expr) -> str | None:
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _receiver_text(call: ast.Call) -> str:
    assert isinstance(call.func, ast.Attribute)
    try:
        return ast.unparse(call.func.value)
    except Exception:  # pragma: no cover - unparse is total on parsed trees
        return ""


def _is_pool_acquire(call: ast.Call, env: _TypeEnv) -> bool:
    if _call_attr(call) != "acquire":
        return False
    receiver = call.func.value  # type: ignore[union-attr]
    types = env.expr_types(receiver)
    if any("pool" in t.lower() for t in types):
        return True
    if env.lock_id(receiver) is not None:
        return False  # a known lock, not a resource
    text = _receiver_text(call).lower()
    return "pool" in text


def _is_batcher_submit(call: ast.Call, env: _TypeEnv) -> bool:
    if _call_attr(call) not in ("submit", "submit_many"):
        return False
    receiver = call.func.value  # type: ignore[union-attr]
    types = env.expr_types(receiver)
    if any("batcher" in t.lower() for t in types):
        return True
    return "batcher" in _receiver_text(call).lower()


def _is_span_call(call: ast.Call) -> bool:
    return _call_attr(call) == "span"


def _assigned_name(stmt: ast.stmt, value: ast.expr) -> str | None:
    """The simple name ``stmt`` binds ``value`` to, if any."""
    if isinstance(stmt, ast.Assign) and stmt.value is value:
        if len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
            return stmt.targets[0].id
    if isinstance(stmt, ast.AnnAssign) and stmt.value is value:
        if isinstance(stmt.target, ast.Name):
            return stmt.target.id
    return None


def _assigns_to_attribute(stmt: ast.stmt, value: ast.expr) -> bool:
    if isinstance(stmt, ast.Assign) and stmt.value is value:
        return any(isinstance(t, ast.Attribute) for t in stmt.targets)
    if isinstance(stmt, ast.AnnAssign) and stmt.value is value:
        return isinstance(stmt.target, ast.Attribute)
    return False


def _statement_of(cfg: CFG, call: ast.Call) -> ast.stmt | None:
    """The CFG-member statement containing ``call`` (None if unplaced)."""
    for block in cfg.blocks.values():
        for stmt in block.statements:
            for child in ast.walk(stmt):
                if child is call:
                    return stmt
    return None


class _ResourceAnalysis:
    """RPR602/RPR603 path checks for one function."""

    def __init__(self, func: FunctionInfo, env: _TypeEnv, rel: str) -> None:
        self.func = func
        self.env = env
        self.rel = rel
        self.cfg: CFG = build_cfg(func.node)
        # Map statement -> block once; walk statements in CFG order.
        self.stmts: list[ast.stmt] = []
        for block in self.cfg.blocks.values():
            self.stmts.extend(block.statements)

    # -- helpers -------------------------------------------------------
    def _with_item_calls(self) -> set[int]:
        """ids of Call nodes appearing as ``with`` items (or inside one)."""
        out: set[int] = set()
        for node in ast.walk(self.func.node):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    for sub in ast.walk(item.context_expr):
                        if isinstance(sub, ast.Call):
                            out.add(id(sub))
        return out

    def _name_entered_as_context(self, name: str) -> bool:
        for node in ast.walk(self.func.node):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Name) and expr.id == name:
                        return True
        return False

    def _name_method_called(self, name: str, methods: set[str]) -> bool:
        for node in ast.walk(self.func.node):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in methods
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == name
            ):
                return True
        return False

    @staticmethod
    def _own_nodes(stmt: ast.stmt):
        """``stmt`` and its expression subtrees, stopping at nested
        statements — a compound header's body belongs to other blocks, so
        matching into it would misattribute conditional code to the
        block holding the header."""
        stack: list[ast.AST] = [stmt]
        while stack:
            node = stack.pop()
            yield node
            for child in ast.iter_child_nodes(node):
                if not isinstance(child, ast.stmt):
                    stack.append(child)

    def _handled_later_in_block(self, block_id: int, stmt: ast.stmt, predicate) -> bool:
        """Whether a statement matching ``predicate`` follows ``stmt``
        inside its own basic block (straight-line coverage: every path
        leaving the block passes it)."""
        statements = self.cfg.blocks[block_id].statements
        seen = False
        for other in statements:
            if other is stmt:
                seen = True
                continue
            if seen and predicate(other):
                return True
        return False

    def _blocks_where(self, predicate) -> set[int]:
        out: set[int] = set()
        for block in self.cfg.blocks.values():
            for stmt in block.statements:
                if predicate(stmt):
                    out.add(block.id)
                    break
        return out

    # -- the checks ----------------------------------------------------
    def check(self) -> list[Finding]:
        findings: list[Finding] = []
        with_calls = self._with_item_calls()
        for node in ast.walk(self.func.node):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not self.func.node:
                continue
            if not isinstance(node, ast.Call):
                continue
            if _is_span_call(node) and not any(
                part in self.rel for part in _SPAN_EXCLUDE
            ):
                findings.extend(self._check_span(node, with_calls))
            elif _is_pool_acquire(node, self.env):
                findings.extend(self._check_acquire(node))
            elif _is_batcher_submit(node, self.env):
                findings.extend(self._check_submit(node))
        return findings

    def _check_span(self, call: ast.Call, with_calls: set[int]) -> list[Finding]:
        if id(call) in with_calls:
            return []
        stmt = _statement_of(self.cfg, call)
        if stmt is None:
            return []
        if isinstance(stmt, ast.Return):
            return []  # ownership transferred to the caller
        name = _assigned_name(stmt, call)
        if name is not None:
            if self._name_entered_as_context(name):
                return []
            if self._name_method_called(name, {"close", "__exit__"}):
                return []
            message = (
                f"span assigned to '{name}' is never entered (no 'with {name}:'"
                " and no explicit close); it will record nothing"
            )
        elif _assigns_to_attribute(stmt, call):
            return []  # stored for a later context entry; dynamic discipline
        elif isinstance(stmt, ast.Expr) and stmt.value is call:
            message = (
                "span created and discarded; enter it with 'with tracer.span(...):'"
            )
        else:
            return []
        return [
            Finding(
                tool="flow",
                rule="RPR602",
                message=message,
                path=self.rel,
                line=call.lineno,
                col=call.col_offset,
                context={"anchor": f"span:{self.func.qualname}", "kind": "span"},
            )
        ]

    def _check_acquire(self, call: ast.Call) -> list[Finding]:
        stmt = _statement_of(self.cfg, call)
        if stmt is None:
            return []
        if isinstance(stmt, ast.Return):
            return []  # the caller owns it now
        if _assigns_to_attribute(stmt, call):
            return []  # ownership stored (e.g. a lease object releasing later)
        name = _assigned_name(stmt, call)
        receiver_text = _receiver_text(call)

        def releases(other: ast.stmt) -> bool:
            for sub in self._own_nodes(other):
                if not isinstance(sub, ast.Call):
                    continue
                attr = _call_attr(sub)
                if attr == "release" and _receiver_text(sub) == receiver_text:
                    return True
                if name is not None and attr in _RELEASE_METHODS:
                    func_value = sub.func.value  # type: ignore[union-attr]
                    if isinstance(func_value, ast.Name) and func_value.id == name:
                        return True
                    if any(
                        isinstance(arg, ast.Name) and arg.id == name
                        for arg in sub.args
                    ):
                        return True
            return False

        release_blocks = self._blocks_where(releases)
        start = self.cfg.block_of(stmt)
        if start is None:
            return []
        if self._handled_later_in_block(start, stmt, releases):
            return []
        if not self.cfg.reaches_exit_avoiding(start, release_blocks):
            return []
        target = f"'{name}'" if name else f"connection from {receiver_text}.acquire()"
        return [
            Finding(
                tool="flow",
                rule="RPR602",
                message=(
                    f"{target} acquired from {receiver_text} may exit "
                    f"'{self.func.qualname}' without release(); a leaked "
                    "connection shrinks the pool for every later caller"
                ),
                path=self.rel,
                line=call.lineno,
                col=call.col_offset,
                context={
                    "anchor": f"acquire:{self.func.qualname}:{receiver_text}",
                    "kind": "connection",
                },
            )
        ]

    def _check_submit(self, call: ast.Call) -> list[Finding]:
        stmt = _statement_of(self.cfg, call)
        if stmt is None:
            return []
        if isinstance(stmt, ast.Return):
            return []
        name = _assigned_name(stmt, call)
        if name is None:
            if isinstance(stmt, ast.Expr) and stmt.value is call:
                return [
                    Finding(
                        tool="flow",
                        rule="RPR603",
                        message=(
                            "batch future(s) from "
                            f"{_receiver_text(call)}.{_call_attr(call)}() are "
                            "discarded; resolve them with .result() or keep the "
                            "handle so errors surface"
                        ),
                        path=self.rel,
                        line=call.lineno,
                        col=call.col_offset,
                        context={"anchor": f"submit:{self.func.qualname}"},
                    )
                ]
            return []
        def consumes(other: ast.stmt) -> bool:
            # Returning the futures transfers ownership to the caller —
            # but only on paths through that return, so it is a consume
            # *block*, not a function-wide waiver.
            if isinstance(other, ast.Return) and other.value is not None:
                for leaf in ast.walk(other.value):
                    if isinstance(leaf, ast.Name) and leaf.id == name:
                        return True
            for sub in self._own_nodes(other):
                if not isinstance(sub, ast.Call):
                    continue
                attr = _call_attr(sub)
                if attr in _CONSUME_METHODS:
                    return True
                # Futures handed to any call transfer responsibility.
                for arg in sub.args:
                    for leaf in ast.walk(arg):
                        if isinstance(leaf, ast.Name) and leaf.id == name:
                            return True
            return False

        consume_blocks = self._blocks_where(consumes)
        start = self.cfg.block_of(stmt)
        if start is None:
            return []
        if self._handled_later_in_block(start, stmt, consumes):
            return []
        if not self.cfg.reaches_exit_avoiding(start, consume_blocks):
            return []
        return [
            Finding(
                tool="flow",
                rule="RPR603",
                message=(
                    f"batch future(s) '{name}' from "
                    f"{_receiver_text(call)}.{_call_attr(call)}() may exit "
                    f"'{self.func.qualname}' unresolved; call .result() (or "
                    "abandon explicitly) on every path so batch errors surface"
                ),
                path=self.rel,
                line=call.lineno,
                col=call.col_offset,
                context={"anchor": f"submit:{self.func.qualname}:{name}"},
            )
        ]


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
@dataclass
class FlowReport:
    """Everything one flow run produced (findings plus raw artifacts)."""

    findings: list[Finding]
    lock_edges: list[LockOrderEdge]
    functions_analyzed: int
    metric_uses: list = field(default_factory=list)

    def edge_dicts(self) -> list[dict]:
        return [edge.to_dict("static") for edge in self.lock_edges]


def analyze_flow(
    paths,
    registry_path: "str | Path | None" = None,
    root: Path | None = None,
) -> FlowReport:
    """Run the three flow analyses over ``paths``.

    ``registry_path`` points at the committed metric inventory; ``None``
    skips the documentation diff (naming/consistency still run). A path
    that does not exist yields one RPR604 finding telling the caller to
    create it.
    """
    root = root if root is not None else Path.cwd()
    index = build_index(paths, root=root)
    analysis = _LockAnalysis(index)
    edges = analysis.lock_order_edges()

    findings: list[Finding] = []
    for cycle_edges in _find_cycles(edges):
        locks = sorted({e.src for e in cycle_edges} | {e.dst for e in cycle_edges})
        witness = cycle_edges[0]
        findings.append(
            Finding(
                tool="flow",
                rule="RPR601",
                message=(
                    "lock-order cycle (potential deadlock) between "
                    + ", ".join(locks)
                    + ": "
                    + "; ".join(
                        f"{e.src} -> {e.dst} at {e.path}:{e.line} ({e.via})"
                        for e in cycle_edges
                    )
                ),
                path=witness.path,
                line=witness.line,
                context={
                    "anchor": "cycle:" + "|".join(locks),
                    "cycle": [e.to_dict("static") for e in cycle_edges],
                },
            )
        )

    functions = 0
    for func in analysis.functions:
        functions += 1
        env = analysis.env_for(func)
        findings.extend(_ResourceAnalysis(func, env, func.module.rel).check())

    uses = collect_metric_uses(paths, root=root)
    registry = None
    registry_name: str | None = None
    if registry_path is not None:
        registry_file = Path(registry_path)
        registry_name = str(registry_path)
        if registry_file.exists():
            registry = parse_registry(registry_file)
        else:
            findings.append(
                Finding(
                    tool="flow",
                    rule="RPR604",
                    message=(
                        f"metric registry {registry_name} does not exist; create "
                        "it with `repro-analyze flow --update-registry`"
                    ),
                    path=registry_name,
                    context={"anchor": "registry-missing"},
                )
            )
    findings.extend(check_contracts(uses, registry, registry_name))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return FlowReport(
        findings=findings,
        lock_edges=edges,
        functions_analyzed=functions,
        metric_uses=uses,
    )
