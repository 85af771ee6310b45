"""Cost accounting for the simulated cloud database.

The paper's end-to-end execution time metric includes connection
management, metadata retrieval and content scanning (Sec. 6.2), and its
intrusiveness metric is the ratio of scanned columns (Sec. 6.5). The
:class:`CostLedger` records all of those, thread-safely, for a whole
detection run; the :class:`CostModel` holds the latency constants the
simulated database charges for each operation.

Two clocks are kept: *wall time* (real ``time.sleep`` is issued so that
pipelining genuinely overlaps I/O with compute) and *simulated time* (the
deterministic sum of the charged latencies, independent of scheduling),
which tests assert on without flakiness.

Every real wait of the database layer — a charged latency, an injected
fault delay, a retry backoff — goes through :func:`wait`, so a scheduler
can learn when the calling thread is blocked rather than computing: it
sets :data:`WAIT_SCOPE` for the work it runs, and each wait runs inside
that scope (see :class:`~repro.core.pipeline.PipelinedExecutor`).
"""

from __future__ import annotations

import contextvars
import threading
import time
from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from typing import Callable

from ..obs.metrics import MetricsRegistry, NullMetricsRegistry, global_registry

__all__ = ["CostModel", "CostLedger", "WAIT_SCOPE", "wait"]

# A factory of the context every real wait of the current task runs in;
# ``None`` (the default) waits with nothing around it.
WAIT_SCOPE: contextvars.ContextVar[
    Callable[[], AbstractContextManager[None]] | None
] = contextvars.ContextVar("repro_wait_scope", default=None)


def wait(seconds: float) -> None:
    """Block for ``seconds`` of real time inside the current :data:`WAIT_SCOPE`."""
    if seconds <= 0:
        return
    scope = WAIT_SCOPE.get()
    if scope is None:
        time.sleep(seconds)
        return
    with scope():
        time.sleep(seconds)


@dataclass(frozen=True)
class CostModel:
    """Latency constants (seconds) charged by the simulated database.

    The defaults keep the paper's *ratios* (content scans are an order of
    magnitude more expensive than metadata fetches, which are more expensive
    than nothing) while letting a full experiment run in seconds on CPU.
    ``time_scale`` multiplies the actual ``sleep`` issued; set it to 0 to
    keep the deterministic accounting but skip real waiting.
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
    """Thread-safe counters for one detection run.

    Every ``record_*`` call corresponds to one client/server round trip,
    tallied in ``round_trips``. The ledger mirrors its counters into a
    :class:`~repro.obs.metrics.MetricsRegistry` (``db.round_trips`` with an
    ``op`` label, ``db.rows_read``, ``db.cells_read``,
    ``db.charged_seconds``) so a run's network profile appears alongside
    the pipeline metrics; the process-global registry is the default sink.
    """

    connections_opened: int = 0
    metadata_requests: int = 0
    scan_queries: int = 0
    rows_read: int = 0
    cells_read: int = 0
    round_trips: int = 0
    simulated_seconds: float = 0.0
    metrics: MetricsRegistry | NullMetricsRegistry | None = None
    _scanned_columns: set[tuple[str, str]] = field(default_factory=set)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def _metrics(self) -> MetricsRegistry | NullMetricsRegistry:
        return self.metrics if self.metrics is not None else global_registry()

    def record_connection(self, cost: float) -> None:
        with self._lock:
            self.connections_opened += 1
            self.round_trips += 1
            self.simulated_seconds += cost
        metrics = self._metrics()
        metrics.counter("db.round_trips", op="connect").inc()
        metrics.counter("db.charged_seconds").inc(cost)

    def record_metadata(self, num_tables: int, cost: float) -> None:
        with self._lock:
            self.metadata_requests += num_tables
            self.round_trips += 1
            self.simulated_seconds += cost
        metrics = self._metrics()
        metrics.counter("db.round_trips", op="metadata").inc()
        metrics.counter("db.charged_seconds").inc(cost)

    def record_scan(
        self, table: str, columns: list[str], rows: int, cost: float
    ) -> None:
        with self._lock:
            self.scan_queries += 1
            self.rows_read += rows
            self.cells_read += rows * len(columns)
            self.round_trips += 1
            self.simulated_seconds += cost
            for column in columns:
                self._scanned_columns.add((table, column))
        metrics = self._metrics()
        metrics.counter("db.round_trips", op="scan").inc()
        metrics.counter("db.rows_read").inc(rows)
        metrics.counter("db.cells_read").inc(rows * len(columns))
        metrics.counter("db.charged_seconds").inc(cost)

    # ------------------------------------------------------------------
    @property
    def scanned_columns(self) -> set[tuple[str, str]]:
        with self._lock:
            return set(self._scanned_columns)

    def num_scanned_columns(self) -> int:
        with self._lock:
            return len(self._scanned_columns)

    def scanned_ratio(self, total_columns: int) -> float:
        """Ratio of scanned columns (paper Sec. 6.5 metric)."""
        if total_columns <= 0:
            return 0.0
        return self.num_scanned_columns() / total_columns

    def snapshot(self) -> dict[str, float]:
        """A plain-dict copy of the counters, for reports."""
        with self._lock:
            return {
                "connections_opened": self.connections_opened,
                "metadata_requests": self.metadata_requests,
                "scan_queries": self.scan_queries,
                "rows_read": self.rows_read,
                "cells_read": self.cells_read,
                "round_trips": self.round_trips,
                "scanned_columns": len(self._scanned_columns),
                "simulated_seconds": self.simulated_seconds,
            }

    def reset(self) -> None:
        with self._lock:
            self.connections_opened = 0
            self.metadata_requests = 0
            self.scan_queries = 0
            self.rows_read = 0
            self.cells_read = 0
            self.round_trips = 0
            self.simulated_seconds = 0.0
            self._scanned_columns.clear()
