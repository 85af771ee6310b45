"""Deterministic fault injection for the simulated cloud database.

A :class:`FaultPlan` is a seeded, declarative description of *what goes
wrong*: each :class:`FaultRule` targets an operation class (metadata
fetch, content scan, connect, ...) and fires with a given probability,
adding latency, raising a :class:`~repro.errors.TransientDBError`,
dropping the connection, or throttling scans. Building the plan yields a
:class:`FaultInjector` whose draws are a hash of the plan seed and the
operation's identity, so every run with the same plan reproduces the same
faults on the same tables however its threads interleave.

Faults fire *before* the underlying :class:`~repro.db.connection.Connection`
operation runs, so a failed attempt charges nothing (see
:func:`~repro.db.cost.charge`) — what a successful round trip costs and
counts is unchanged, and a fully retried run converges to the same
charged totals as a fault-free one, plus any reconnects, each billed to
the table job whose stage made it. Injected latency sleeps through the
cost model's scaled clock but is accounted separately
(``faults.injected_latency_seconds``), never in a run's cost.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..db.connection import Connection, ConnectionClosedError
from ..errors import ConnectionDroppedError, TransientDBError
from ..obs.metrics import MetricsRegistry, NullMetricsRegistry, global_registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..db.schema import TableMetadata
    from ..db.server import CloudDatabaseServer

__all__ = ["FaultRule", "FaultPlan", "FaultInjector", "FaultyConnection", "OPERATIONS", "KINDS"]

#: Operation classes a rule can target; ``"*"`` matches any of them.
OPERATIONS = (
    "connect",
    "list_tables",
    "fetch_metadata",
    "fetch_values",
    "analyze_table",
    "execute",
)

#: What happens when a rule fires.
KINDS = ("latency", "transient", "drop", "throttle")


@dataclass(frozen=True)
class FaultRule:
    """One kind of trouble, aimed at one class of operation.

    Parameters
    ----------
    operation:
        One of :data:`OPERATIONS`, or ``"*"`` for all of them.
    kind:
        ``"latency"`` sleeps ``delay`` extra seconds and lets the call
        proceed; ``"transient"`` raises :class:`TransientDBError`;
        ``"drop"`` kills the connection (raises
        :class:`ConnectionDroppedError`; the next operation transparently
        reconnects, paying connect latency); ``"throttle"`` sleeps
        ``delay`` *per requested column* on content scans (a slow-scan
        brake) and only matches ``fetch_values``.
    probability:
        Chance the rule fires on a matching operation (see
        :class:`FaultInjector` for how the draw is keyed).
    delay:
        Seconds of injected latency (``latency``/``throttle`` kinds).
    max_faults:
        Optional cap on total firings; with ``probability=1.0`` this gives
        exact, scheduler-independent fault counts.
    tables:
        Optional restriction to specific table names (operations without a
        table, like ``connect``, never match a table-restricted rule).
    """

    operation: str
    kind: str
    probability: float = 1.0
    delay: float = 0.0
    max_faults: int | None = None
    tables: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.operation != "*" and self.operation not in OPERATIONS:
            raise ValueError(
                f"operation must be '*' or one of {OPERATIONS}, got {self.operation!r}"
            )
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        if self.delay < 0:
            raise ValueError("delay must be non-negative")
        if self.kind in ("latency", "throttle") and self.delay == 0:
            raise ValueError(f"kind {self.kind!r} needs a positive delay")
        if self.max_faults is not None and self.max_faults < 0:
            raise ValueError("max_faults must be non-negative")
        if self.kind == "throttle" and self.operation not in ("fetch_values", "*"):
            raise ValueError("throttle rules only apply to fetch_values")

    def matches(self, operation: str, table: str | None) -> bool:
        if self.kind == "throttle" and operation != "fetch_values":
            return False
        if self.operation != "*" and self.operation != operation:
            return False
        if self.tables is not None:
            return table is not None and table in self.tables
        return True


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault rules; ``build()`` yields the live injector."""

    seed: int = 0
    rules: tuple[FaultRule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def build(
        self, metrics: MetricsRegistry | NullMetricsRegistry | None = None
    ) -> "FaultInjector":
        return FaultInjector(self, metrics=metrics)

    # ------------------------------------------------------------------
    # Convenience plans
    # ------------------------------------------------------------------
    @staticmethod
    def transient(
        rate: float, seed: int = 0, operations: tuple[str, ...] = ("fetch_values",)
    ) -> "FaultPlan":
        """Each targeted operation fails transiently with probability ``rate``."""
        return FaultPlan(
            seed=seed,
            rules=tuple(
                FaultRule(operation=op, kind="transient", probability=rate)
                for op in operations
            ),
        )

    @staticmethod
    def chaos(rate: float, seed: int = 0, delay: float = 2e-3) -> "FaultPlan":
        """A mixed storm: transient query errors, slow scans, rare drops."""
        return FaultPlan(
            seed=seed,
            rules=(
                FaultRule("fetch_metadata", "transient", probability=rate),
                FaultRule("fetch_values", "transient", probability=rate),
                FaultRule("fetch_values", "drop", probability=rate / 4),
                FaultRule("fetch_values", "latency", probability=rate, delay=delay),
            ),
        )


class FaultInjector:
    """Evaluates a :class:`FaultPlan` against live operations (thread-safe).

    Each Bernoulli draw is a pure function of ``(plan.seed, rule index,
    operation, table, n)`` where ``n`` counts how often that rule has been
    evaluated for that operation on that table. No stream is shared
    between tables, so *which table* eats a fault — hence per-table retry
    counts, degraded sets and charged totals — is the same for sequential,
    pipelined, batched and served runs at any worker count.

    The invariant is scoped to table-keyed operations. Three corners:

    * Table-less operations (``connect``, ``list_tables``, ``execute``,
      and the reconnect after a drop) are keyed with ``table=None``, so
      their ``n`` is an arrival-order ordinal: fixed for the single
      connect/list of a ``detect()`` call, schedule-dependent for
      reconnects when several tables are in flight.
    * A ``max_faults`` cap is global to the rule: it fixes *how many*
      faults fire, but which table absorbs them follows arrival order
      unless the rule also sets ``tables=``.
    * Two jobs for the same table name through one injector share a
      stream, so their draws interleave by arrival.
    """

    def __init__(
        self,
        plan: FaultPlan,
        metrics: MetricsRegistry | NullMetricsRegistry | None = None,
    ) -> None:
        self.plan = plan
        self.metrics = metrics if metrics is not None else global_registry()
        self._lock = threading.Lock()
        self._evaluations: dict[tuple[int, str, str | None], int] = {}
        self._fired = [0] * len(plan.rules)
        self._injected_latency = 0.0
        self._counters = {
            kind: self.metrics.counter("faults.injected", kind=kind) for kind in KINDS
        }
        self._latency_total = self.metrics.counter("faults.injected_latency_seconds")

    # ------------------------------------------------------------------
    @property
    def fired(self) -> tuple[int, ...]:
        """Per-rule firing counts (plan order)."""
        with self._lock:
            return tuple(self._fired)

    @property
    def total_fired(self) -> int:
        with self._lock:
            return sum(self._fired)

    @property
    def injected_latency(self) -> float:
        """Total injected sleep seconds (simulated clock, pre-scaling)."""
        with self._lock:
            return self._injected_latency

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "fired": list(self._fired),
                "total_fired": sum(self._fired),
                "injected_latency_seconds": self._injected_latency,
            }

    # ------------------------------------------------------------------
    def connect(self, server: "CloudDatabaseServer") -> "FaultyConnection":
        """Open a fault-wrapped connection (the injection entry point)."""
        self.before("connect", None, server.cost_model)
        return FaultyConnection(server, self)

    def _draw(self, index: int, operation: str, table: str | None) -> float:
        """Uniform [0, 1) draw for the next evaluation of this key (under ``_lock``)."""
        key = (index, operation, table)
        ordinal = self._evaluations.get(key, 0)
        self._evaluations[key] = ordinal + 1
        # hashlib, not hash(): str hashes are salted per process.
        digest = hashlib.blake2b(
            repr((self.plan.seed, *key, ordinal)).encode(), digest_size=8
        ).digest()
        # 53 bits, as random.random() does: exact in [0, 1), never 1.0.
        return (int.from_bytes(digest, "big") >> 11) / 2.0**53

    def before(self, operation: str, table: str | None, cost_model: Any, scale: int = 1) -> None:
        """Evaluate every matching rule ahead of one operation.

        Latency-kind rules sleep (through ``cost_model.sleep`` so the
        global ``time_scale`` applies) and let the operation proceed;
        error-kind rules raise. ``scale`` multiplies throttle delays (the
        number of columns a scan requests).
        """
        for index, rule in enumerate(self.plan.rules):
            if not rule.matches(operation, table):
                continue
            with self._lock:
                # Draw before the cap check: a table's draw sequence must
                # not depend on when other tables exhausted the cap.
                if self._draw(index, operation, table) >= rule.probability:
                    continue
                if rule.max_faults is not None and self._fired[index] >= rule.max_faults:
                    continue
                self._fired[index] += 1
                if rule.kind in ("latency", "throttle"):
                    delay = rule.delay * (scale if rule.kind == "throttle" else 1)
                    self._injected_latency += delay
            self._counters[rule.kind].inc()
            if rule.kind in ("latency", "throttle"):
                self._latency_total.inc(delay)
                cost_model.sleep(delay)
                continue
            if rule.kind == "transient":
                raise TransientDBError(
                    f"injected transient failure on {operation}"
                    + (f" ({table})" if table else "")
                )
            raise ConnectionDroppedError(
                f"injected connection drop on {operation}"
                + (f" ({table})" if table else "")
            )


class FaultyConnection:
    """A :class:`Connection` proxy that runs every operation past the injector.

    Presents the same typed API as :class:`~repro.db.connection.Connection`.
    After an injected drop the inner connection is discarded; the next
    operation transparently reconnects through the server (charging the
    usual connect latency, and itself subject to ``connect`` fault rules).
    """

    def __init__(self, server: "CloudDatabaseServer", injector: FaultInjector) -> None:
        self._server = server
        self._injector = injector
        self._inner: Connection | None = server.connect()
        self._closed = False
        self.reconnects = 0

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._inner is not None:
            self._inner.close()
        self._closed = True

    def __enter__(self) -> "FaultyConnection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _live(self) -> Connection:
        if self._closed:
            raise ConnectionClosedError("connection is closed")
        if self._inner is None:
            # Reconnect after a drop; the reconnect can fault too.
            self._injector.before("connect", None, self._server.cost_model)
            self._inner = self._server.connect()
            self.reconnects += 1
        return self._inner

    def _guard(self, operation: str, table: str | None, scale: int = 1) -> Connection:
        inner = self._live()
        try:
            self._injector.before(operation, table, self._server.cost_model, scale)
        except ConnectionDroppedError:
            inner.close()
            self._inner = None
            raise
        return inner

    # ------------------------------------------------------------------
    # Typed API (mirrors Connection)
    # ------------------------------------------------------------------
    def list_tables(self) -> list[str]:
        return self._guard("list_tables", None).list_tables()

    def fetch_metadata(self, table_name: str) -> "TableMetadata":
        return self._guard("fetch_metadata", table_name).fetch_metadata(table_name)

    def fetch_values(
        self,
        table_name: str,
        column_names: list[str],
        limit: int | None = None,
        sample_seed: int | None = None,
    ) -> dict[str, list[str]]:
        inner = self._guard("fetch_values", table_name, scale=max(len(column_names), 1))
        return inner.fetch_values(table_name, column_names, limit, sample_seed)

    def analyze_table(self, table_name: str, *args: Any, **kwargs: Any) -> None:
        self._guard("analyze_table", table_name).analyze_table(table_name, *args, **kwargs)

    def execute(self, sql: str) -> list[dict] | list[tuple]:
        return self._guard("execute", None).execute(sql)
