"""Lockset-based dynamic race detection (Eraser-style, pure Python).

:class:`LocksetMonitor` instruments classes under test the way a
sanitizer would: while a monitor is active, new instances of an
instrumented class get (1) their lock attributes wrapped in tracking
proxies that maintain a per-thread held-lock set, and (2) a patched
``__setattr__`` that records, for every attribute write, which locks the
writing thread held.

Per ``(instance, attribute)`` the monitor runs the Eraser state machine:

* **exclusive** — while a single thread writes, nothing is inferred
  (initialization and single-threaded phases are never flagged);
* **shared** — from the first write by a second thread, the candidate
  lockset is the intersection of the locks held across all writes. When
  it becomes empty, the writes are not mutually excluded by any common
  lock and a :class:`RaceReport` is emitted.

The monitor only observes *writes* (read/write races on plain attributes
are almost always accompanied by write/write races in this codebase's
counter-heavy classes, and write-only tracking keeps the overhead low
enough for stress tests). Instances constructed before ``instrument``
activates are not tracked.

Usage::

    monitor = LocksetMonitor()
    with monitor.instrument(ConnectionPool):
        run_stress()
    monitor.assert_clean()          # raises with a formatted report
"""

from __future__ import annotations

import json
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from .findings import Finding

__all__ = ["LocksetMonitor", "RaceReport", "self_check", "write_order_edges_jsonl"]

_MAX_SAMPLES = 6


@dataclass(frozen=True)
class RaceReport:
    """One unlocked shared write pattern on ``cls.attr``."""

    cls: str
    attr: str
    threads: tuple[int, ...]
    locations: tuple[str, ...]

    def format(self) -> str:
        where = "; ".join(self.locations) or "unknown"
        return (
            f"race on {self.cls}.{self.attr}: written by threads "
            f"{list(self.threads)} with no common lock (writes at {where})"
        )

    def to_finding(self) -> Finding:
        return Finding(
            tool="races",
            rule="RPR701",
            message=self.format(),
            context={"cls": self.cls, "attr": self.attr},
        )


@dataclass
class _VarState:
    first_thread: int
    shared: bool = False
    lockset: frozenset[int] = frozenset()
    threads: set[int] = field(default_factory=set)
    locations: list[str] = field(default_factory=list)
    reported: bool = False


class _TrackedLock:
    """Proxy around a real lock; registers acquire/release with the monitor.

    ``label`` is the lock's stable identity (``ClassName.attr``) — the
    same abstraction the static lock-order analysis (RPR601) uses, so
    observed acquisition-order edges and statically derived ones are
    directly comparable.
    """

    def __init__(self, inner: Any, monitor: "LocksetMonitor", label: str = "") -> None:
        self._inner = inner
        self._monitor = monitor
        self._label = label or f"lock@{id(inner):x}"

    def acquire(self, *args: Any, **kwargs: Any) -> bool:
        acquired = self._inner.acquire(*args, **kwargs)
        if acquired:
            self._monitor._push_lock(self)
        return acquired

    def release(self) -> None:
        self._monitor._pop_lock(self)
        self._inner.release()

    def __enter__(self) -> "_TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __getattr__(self, name: str) -> Any:  # locked(), etc.
        return getattr(self._inner, name)


# Real threading primitives only: duck-typing on acquire/release would
# also wrap a connection pool, whose release takes an argument.
_LOCK_TYPES = (
    type(threading.Lock()),
    type(threading.RLock()),
    threading.Condition,
    threading.Semaphore,
)


def _is_lock_like(value: Any) -> bool:
    return isinstance(value, _LOCK_TYPES)


def _caller_frame() -> tuple[str, int, str]:
    """(filename, line, function) of the first frame outside this module."""
    frame = sys._getframe(1)
    while frame is not None and frame.f_code.co_filename == __file__:
        frame = frame.f_back
    if frame is None:
        return ("unknown", 0, "unknown")
    return (frame.f_code.co_filename, frame.f_lineno, frame.f_code.co_name)


def _caller_location() -> str:
    """First stack frame outside this module (the instrumented write site)."""
    filename, line, function = _caller_frame()
    if filename == "unknown":
        return "unknown"
    return f"{filename}:{line} in {function}"


class _Instrumentation:
    """Context manager that patches classes and restores them on exit."""

    def __init__(self, monitor: "LocksetMonitor", classes: tuple[type, ...]) -> None:
        self._monitor = monitor
        self._classes = classes
        self._saved: list[tuple[type, Any, Any]] = []

    def __enter__(self) -> "_Instrumentation":
        for cls in self._classes:
            self._saved.append((cls, cls.__init__, cls.__setattr__))
            self._patch(cls)
        return self

    def __exit__(self, *exc_info: object) -> None:
        for cls, original_init, original_setattr in reversed(self._saved):
            cls.__init__ = original_init
            cls.__setattr__ = original_setattr
        self._saved.clear()

    def _patch(self, cls: type) -> None:
        monitor = self._monitor
        original_init = cls.__init__
        original_setattr = cls.__setattr__

        def patched_init(obj: Any, *args: Any, **kwargs: Any) -> None:
            monitor._begin_construction(obj)
            try:
                original_init(obj, *args, **kwargs)
                for name, value in list(vars(obj).items()):
                    if _is_lock_like(value):
                        label = f"{type(obj).__name__}.{name}"
                        original_setattr(
                            obj, name, _TrackedLock(value, monitor, label)
                        )
            finally:
                monitor._end_construction(obj)

        def patched_setattr(obj: Any, name: str, value: Any) -> None:
            monitor._record_write(obj, name)
            original_setattr(obj, name, value)

        cls.__init__ = patched_init
        cls.__setattr__ = patched_setattr


class LocksetMonitor:
    """Collects lockset evidence from instrumented classes (thread-safe)."""

    def __init__(self) -> None:
        self._held = threading.local()  # .counts: dict[id(proxy) -> depth]
        # .stack: per-thread list of (id(proxy), label) in acquisition order
        self._state_lock = threading.Lock()
        self._state: dict[tuple[int, str], _VarState] = {}
        self._names: dict[tuple[int, str], str] = {}
        self._constructing: set[int] = set()
        self._tracked: set[int] = set()
        self._reports: list[RaceReport] = []
        self._order_edges: dict[tuple[str, str], dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # Instrumentation lifecycle
    # ------------------------------------------------------------------
    def instrument(self, *classes: type) -> _Instrumentation:
        """Patch ``classes`` for the duration of the returned context."""
        if not classes:
            raise ValueError("instrument() needs at least one class")
        return _Instrumentation(self, classes)

    def _begin_construction(self, obj: Any) -> None:
        with self._state_lock:
            self._constructing.add(id(obj))

    def _end_construction(self, obj: Any) -> None:
        with self._state_lock:
            self._constructing.discard(id(obj))
            self._tracked.add(id(obj))

    # ------------------------------------------------------------------
    # Held-lock tracking (called from _TrackedLock)
    # ------------------------------------------------------------------
    def _lock_counts(self) -> dict[int, int]:
        counts = getattr(self._held, "counts", None)
        if counts is None:
            counts = {}
            self._held.counts = counts
        return counts

    def _lock_stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def _push_lock(self, proxy: _TrackedLock) -> None:
        counts = self._lock_counts()
        stack = self._lock_stack()
        first = counts.get(id(proxy), 0) == 0
        counts[id(proxy)] = counts.get(id(proxy), 0) + 1
        if not first:
            return  # re-entrant acquire: no new ordering information
        filename, line, function = _caller_frame()
        new_edges: list[tuple[str, str, dict[str, Any]]] = []
        for held_id, held_label in stack:
            if held_id == id(proxy) or held_label == proxy._label:
                continue
            key = (held_label, proxy._label)
            new_edges.append(
                (
                    held_label,
                    proxy._label,
                    {
                        "from": held_label,
                        "to": proxy._label,
                        "path": filename,
                        "line": line,
                        "via": function,
                        "source": "dynamic",
                    },
                )
            )
        stack.append((id(proxy), proxy._label))
        if new_edges:
            with self._state_lock:
                for src, dst, edge in new_edges:
                    self._order_edges.setdefault((src, dst), edge)

    def _pop_lock(self, proxy: _TrackedLock) -> None:
        counts = self._lock_counts()
        remaining = counts.get(id(proxy), 0) - 1
        if remaining <= 0:
            counts.pop(id(proxy), None)
            stack = self._lock_stack()
            for index in range(len(stack) - 1, -1, -1):
                if stack[index][0] == id(proxy):
                    del stack[index]
                    break
        else:
            counts[id(proxy)] = remaining

    def held_locks(self) -> frozenset[int]:
        """Ids of the tracked locks the calling thread currently holds."""
        return frozenset(self._lock_counts())

    # ------------------------------------------------------------------
    # The Eraser state machine
    # ------------------------------------------------------------------
    def _record_write(self, obj: Any, attr: str) -> None:
        key = (id(obj), attr)
        thread = threading.get_ident()
        held = self.held_locks()
        with self._state_lock:
            if id(obj) in self._constructing or id(obj) not in self._tracked:
                return
            state = self._state.get(key)
            if state is None:
                state = _VarState(first_thread=thread)
                self._state[key] = state
                self._names[key] = type(obj).__name__
            state.threads.add(thread)
            if len(state.locations) < _MAX_SAMPLES:
                state.locations.append(_caller_location())
            if not state.shared:
                if thread == state.first_thread:
                    return  # exclusive phase: single-threaded, never flagged
                state.shared = True
                state.lockset = held
            else:
                state.lockset &= held
            if not state.lockset and not state.reported:
                state.reported = True
                self._reports.append(
                    RaceReport(
                        cls=self._names[key],
                        attr=attr,
                        threads=tuple(sorted(state.threads)),
                        locations=tuple(state.locations),
                    )
                )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def reports(self) -> list[RaceReport]:
        with self._state_lock:
            return list(self._reports)

    def findings(self) -> list[Finding]:
        return [report.to_finding() for report in self.reports]

    def assert_clean(self) -> None:
        reports = self.reports
        if reports:
            raise AssertionError(
                "lockset monitor found races:\n"
                + "\n".join(report.format() for report in reports)
            )

    def order_edges(self) -> list[dict[str, Any]]:
        """Observed lock-acquisition-order edges, deduplicated by pair.

        Each edge is ``{"from", "to", "path", "line", "via", "source":
        "dynamic"}`` — the same schema the static lock-order analysis
        (RPR601) exports with ``source: "static"``, so the two sets diff
        mechanically: a dynamic edge whose reverse appears statically is
        a latent deadlock the test happened not to trigger.
        """
        with self._state_lock:
            return sorted(
                (dict(edge) for edge in self._order_edges.values()),
                key=lambda edge: (edge["from"], edge["to"]),
            )

    def reset(self) -> None:
        with self._state_lock:
            self._state.clear()
            self._names.clear()
            self._reports.clear()
            self._order_edges.clear()


def write_order_edges_jsonl(edges: list[dict[str, Any]], path: str | Path) -> Path:
    """Write lock-order edges (static or dynamic) one JSON object per line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for edge in edges:
            handle.write(json.dumps(edge, default=str) + "\n")
    return path


# ----------------------------------------------------------------------
# CLI self-check
# ----------------------------------------------------------------------
class _RacyCounter:
    """Deliberately broken: owns a lock but increments without it."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.count = 0

    def bump(self) -> None:
        self.count += 1  # unlocked shared write — the monitor must flag this


class _GuardedCounter:
    """Correct twin of :class:`_RacyCounter`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.count = 0

    def bump(self) -> None:
        with self._lock:
            self.count += 1


def _hammer(target: Any, threads: int = 2, iterations: int = 200) -> None:
    barrier = threading.Barrier(threads)

    def run() -> None:
        barrier.wait()
        for _ in range(iterations):
            target.bump()

    workers = [threading.Thread(target=run) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()


def self_check() -> Iterator[Finding]:
    """Verify the monitor itself: flags an injected race, passes a clean class.

    Yields a finding per *detector* failure — an empty result means the
    race detector is healthy. This is what ``python -m repro.analysis
    races`` runs; the monitor's real use is as a library in the
    concurrency test suites.
    """
    racy_monitor = LocksetMonitor()
    with racy_monitor.instrument(_RacyCounter):
        _hammer(_RacyCounter())
    if not racy_monitor.reports:
        yield Finding(
            tool="races",
            rule="RPR700",
            message="self-check failed: injected unlocked write was not detected",
        )

    clean_monitor = LocksetMonitor()
    with clean_monitor.instrument(_GuardedCounter):
        _hammer(_GuardedCounter())
    for report in clean_monitor.reports:
        yield Finding(
            tool="races",
            rule="RPR700",
            message=f"self-check failed: false positive on guarded class ({report.format()})",
        )
