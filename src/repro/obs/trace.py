"""Span-based tracing for the two-phase detection pipeline.

A :class:`Span` is a named interval on the monotonic clock with key-value
attributes and a link to its parent; a :class:`Tracer` collects finished
spans for one run. The *current* span is carried in a
:mod:`contextvars` context variable, so nesting works naturally with
``with`` blocks — and, crucially, survives the hand-off to the pipelined
executor's prep pool: the dispatch loop captures its context with
:func:`contextvars.copy_context` and runs each prep stage inside that
copy, so a stage span started on a ``taste-prep`` worker thread still
parents to the run's root span. Inference stages run in rounds on the
dispatch loop's own thread (Algorithm 1's TP2; inference there would only
compete with the loop for the GIL), where many tables' stages are in
progress at once, so each is recorded with :meth:`Tracer.interval` under
the loop's current span.

Tracing is default-on and cheap; ``Tracer(enabled=False)`` short-circuits
``span()`` into returning a shared no-op span, so instrumented code pays a
couple of attribute lookups and nothing else.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextvars import ContextVar
from typing import Any, Iterator

__all__ = ["Span", "Tracer", "NULL_SPAN", "NULL_TRACER", "current_span"]

# The active span of the calling context (shared by all tracers; spans know
# which tracer owns them).
_CURRENT: ContextVar["Span | None"] = ContextVar("repro_obs_current_span", default=None)

_ids = itertools.count(1)  # CPython-atomic next(); span ids unique per process


def current_span() -> "Span | None":
    """The span active in the calling context, if any."""
    return _CURRENT.get()


class Span:
    """One named, attributed interval. Use as a context manager."""

    __slots__ = (
        "name", "span_id", "parent_id", "start", "end",
        "attributes", "thread", "_tracer", "_token",
    )

    def __init__(self, tracer: "Tracer", name: str, attributes: dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = next(_ids)
        self.parent_id: int | None = None
        self.start: float | None = None
        self.end: float | None = None
        self.attributes = attributes
        self.thread: str = ""
        self._token = None

    # ------------------------------------------------------------------
    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        if self.start is None or self.end is None:
            return 0.0
        return self.end - self.start

    def set(self, **attributes: Any) -> "Span":
        """Attach attributes; returns ``self`` for chaining."""
        self.attributes.update(attributes)
        return self

    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        parent = _CURRENT.get()
        self.parent_id = parent.span_id if parent is not None else None
        self.thread = threading.current_thread().name
        self._token = _CURRENT.set(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end = time.perf_counter()
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        if exc is not None:
            self.attributes.setdefault("error", repr(exc))
        self._tracer._record(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, "
            f"duration={self.duration:.6f}, attrs={self.attributes})"
        )


class _NullSpan:
    """Shared do-nothing span returned by disabled tracers."""

    __slots__ = ()
    name = ""
    span_id = 0
    parent_id = None
    start = None
    end = None
    thread = ""

    @property
    def duration(self) -> float:
        return 0.0

    @property
    def attributes(self) -> dict[str, Any]:
        return {}

    def set(self, **attributes: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects the finished spans of one run (thread-safe)."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._finished: list[Span] = []

    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: Any) -> Span | _NullSpan:
        """Open a span parented to the context's current span.

        The span starts on ``__enter__`` and is recorded on ``__exit__``;
        with ``enabled=False`` a shared no-op span is returned instead.
        """
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, attributes)

    def interval(
        self,
        name: str,
        started: float,
        ended: float,
        parent: "Span | None" = None,
        **attributes: Any,
    ) -> Span | _NullSpan:
        """Record an already-finished interval without entering a context.

        ``Span.__exit__`` resets a :mod:`contextvars` token and therefore
        must run in the same context that entered the span. Long-lived
        intervals that start on one thread and end on another (a service
        job spanning queue wait plus execution, say) cannot use that
        protocol; they measure ``time.perf_counter()`` themselves and
        record the result here. ``parent`` links the interval explicitly
        since there is no enclosing context to inherit from.
        """
        if not self.enabled:
            return NULL_SPAN
        span = Span(self, name, attributes)
        span.parent_id = parent.span_id if parent is not None else None
        span.thread = threading.current_thread().name
        span.start = started
        span.end = ended
        self._record(span)
        return span

    def _record(self, span: Span) -> None:
        with self._lock:
            self._finished.append(span)

    # ------------------------------------------------------------------
    def spans(self) -> list[Span]:
        """Snapshot of finished spans in completion order."""
        with self._lock:
            return list(self._finished)

    def find(self, name: str) -> list[Span]:
        """Finished spans with the given name."""
        return [span for span in self.spans() if span.name == name]

    def iter_children(self, parent: Span) -> Iterator[Span]:
        for span in self.spans():
            if span.parent_id == parent.span_id:
                yield span

    def root_of(self, span: Span) -> Span:
        """Walk parent links to the top of ``span``'s tree."""
        by_id = {s.span_id: s for s in self.spans()}
        node = span
        while node.parent_id is not None and node.parent_id in by_id:
            node = by_id[node.parent_id]
        return node

    def reset(self) -> None:
        with self._lock:
            self._finished.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._finished)


NULL_TRACER = Tracer(enabled=False)
