"""Cost accounting for the simulated cloud database.

The paper's end-to-end execution time metric includes connection
management, metadata retrieval and content scanning (Sec. 6.2), and its
intrusiveness metric is the ratio of scanned columns (Sec. 6.5). Both
are measured per run: :func:`charge` bills each round trip to the
:class:`CostLedger` of the run (or table job) that made it, named by
:data:`PAYER`, and counts it in the server's ``db.*`` metrics; a report's
``cost`` is :func:`total_cost` of its run's ledgers. The
:class:`CostModel` holds the latency constants the simulated database
charges for each operation.

Two clocks are kept: *wall time* (each charged latency is really waited
for, so pipelining genuinely overlaps I/O with compute) and *simulated
time* (the deterministic sum of the charged latencies, independent of
scheduling), which tests assert on without flakiness.

Every wait of the database layer — a charged latency, an injected fault
delay, a retry backoff — goes through :func:`wait`. Outside a
:func:`deferring` block it sleeps. Inside one it does not: a simulated
round trip's latency is known when the request is issued, so the wait is
added to the block's owed seconds, as an asynchronous client would hold
an in-flight request with a due time instead of a parked thread. The
caller then runs nothing that reads the result before the block's due
time (see :class:`~repro.core.pipeline.PipelinedExecutor`). :func:`clock`
is the caller's virtual clock, real time plus what it owes, so a deadline
counts deferred waits as a sleeping caller counts slept ones.
"""

from __future__ import annotations

import contextvars
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from ..obs.metrics import MetricsRegistry, NullMetricsRegistry

__all__ = [
    "CostModel", "CostLedger", "PAYER", "billed_to", "charge", "total_cost",
    "Deferred", "deferring", "wait", "owed", "clock",
]


@dataclass
class Deferred:
    """The waits a :func:`deferring` block owes instead of sleeping them."""

    seconds: float = 0.0
    waits: int = 0


# The owed waits of the current task; ``None`` (the default) sleeps them.
_DEFERRED: contextvars.ContextVar[Deferred | None] = contextvars.ContextVar(
    "repro_deferred", default=None
)


@contextmanager
def deferring() -> Iterator[Deferred]:
    """Owe every :func:`wait` made inside the block instead of sleeping it."""
    deferred = Deferred()
    token = _DEFERRED.set(deferred)
    try:
        yield deferred
    finally:
        _DEFERRED.reset(token)


def wait(seconds: float) -> None:
    """Wait ``seconds``: sleep, or owe them inside a :func:`deferring` block."""
    if seconds <= 0:
        return
    deferred = _DEFERRED.get()
    if deferred is None:
        time.sleep(seconds)
        return
    deferred.seconds += seconds
    deferred.waits += 1


def owed() -> float:
    """The seconds the current task owes (0 outside a :func:`deferring` block)."""
    deferred = _DEFERRED.get()
    return 0.0 if deferred is None else deferred.seconds


def clock() -> float:
    """The current task's virtual clock: ``time.monotonic()`` plus :func:`owed`."""
    return time.monotonic() + owed()


@dataclass(frozen=True)
class CostModel:
    """Latency constants (seconds) charged by the simulated database.

    The defaults keep the paper's *ratios* (content scans are an order of
    magnitude more expensive than metadata fetches, which are more expensive
    than nothing) while letting a full experiment run in seconds on CPU.
    ``time_scale`` multiplies the real wait issued; set it to 0 to keep
    the deterministic accounting but skip real waiting.
    """

    connect_latency: float = 4e-3
    round_trip_latency: float = 1e-3
    metadata_per_table: float = 5e-4
    scan_fixed: float = 2e-3
    scan_per_row: float = 4e-5
    sampling_overhead: float = 1.5e-3  # extra cost of ORDER BY RAND(...)
    time_scale: float = 1.0

    def sleep(self, seconds: float) -> None:
        """Issue the real wait corresponding to a simulated latency."""
        if seconds > 0 and self.time_scale > 0:
            wait(seconds * self.time_scale)


@dataclass
class CostLedger:
    """What one run's round trips cost, or one table job's share of it.

    Each counter counts what :func:`charge` billed while this ledger was
    the :data:`PAYER`; ``scanned`` holds the ``(table, column)`` pairs
    content scans read. A ledger has one payer at a time (a run's own
    connect and listing, or one table job's prep stages, which never run
    at once), so it needs no lock.
    """

    connections_opened: int = 0
    metadata_requests: int = 0
    scan_queries: int = 0
    rows_read: int = 0
    cells_read: int = 0
    round_trips: int = 0
    simulated_seconds: float = 0.0
    scanned: set[tuple[str, str]] = field(default_factory=set)


# The ledger the current task's round trips are billed to; ``None`` (the
# default) bills nobody and only counts them.
PAYER: contextvars.ContextVar[CostLedger | None] = contextvars.ContextVar(
    "repro_payer", default=None
)


@contextmanager
def billed_to(ledger: CostLedger) -> Iterator[CostLedger]:
    """Bill every round trip made inside the block to ``ledger``."""
    token = PAYER.set(ledger)
    try:
        yield ledger
    finally:
        PAYER.reset(token)


def charge(
    metrics: MetricsRegistry | NullMetricsRegistry,
    op: str,
    seconds: float,
    *,
    tables: int = 0,
    table: str = "",
    columns: Sequence[str] = (),
    rows: int = 0,
) -> None:
    """Count one round trip in the server's ``db.*`` counters and bill it
    to the current :data:`PAYER`.

    ``op`` is ``"connect"``, ``"metadata"`` (``tables`` metadata records
    fetched) or ``"scan"`` (``rows`` rows of ``table``'s ``columns``).
    """
    metrics.counter("db.round_trips", op=op).inc()
    if op == "scan":
        metrics.counter("db.rows_read").inc(rows)
        metrics.counter("db.cells_read").inc(rows * len(columns))
    metrics.counter("db.charged_seconds").inc(seconds)
    ledger = PAYER.get()
    if ledger is None:
        return
    ledger.round_trips += 1
    ledger.simulated_seconds += seconds
    ledger.metadata_requests += tables
    if op == "connect":
        ledger.connections_opened += 1
    elif op == "scan":
        ledger.scan_queries += 1
        ledger.rows_read += rows
        ledger.cells_read += rows * len(columns)
        ledger.scanned.update((table, column) for column in columns)


# The additive counts of a report's ``cost``, in its key order.
_COUNTERS = (
    "connections_opened", "metadata_requests", "scan_queries", "rows_read", "cells_read", "round_trips"
)


def total_cost(ledgers: Iterable[CostLedger]) -> dict[str, float]:
    """A report's ``cost`` dict: ``ledgers`` added up in order, each
    scanned column counted once."""
    ledgers = list(ledgers)
    cost = {name: sum(getattr(ledger, name) for ledger in ledgers) for name in _COUNTERS}
    cost["scanned_columns"] = len(set().union(*(ledger.scanned for ledger in ledgers)))
    cost["simulated_seconds"] = sum(ledger.simulated_seconds for ledger in ledgers)
    return cost
