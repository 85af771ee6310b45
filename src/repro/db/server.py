"""The cloud-side view of a tenant database: connections + cost ledger.

In the paper's production setup the detection service (on ECS) talks to the
tenant's RDS MySQL over a VPC. :class:`CloudDatabaseServer` models that
boundary: it owns the latency model and the cost ledger (lifetime totals,
not reset per run), and hands out :class:`~repro.db.connection.Connection`
objects whose every operation is charged.
"""

from __future__ import annotations

from ..datagen.tables import Table
from ..obs.metrics import MetricsRegistry, NullMetricsRegistry
from .connection import Connection
from .cost import CostLedger, CostModel
from .engine import Database

__all__ = ["CloudDatabaseServer"]


class CloudDatabaseServer:
    """Hosts a :class:`Database` behind a latency-charging connection API."""

    def __init__(
        self,
        database: Database,
        cost_model: CostModel | None = None,
        ledger: CostLedger | None = None,
        metrics: MetricsRegistry | NullMetricsRegistry | None = None,
    ) -> None:
        self.database = database
        self.cost_model = cost_model or CostModel()
        self.ledger = ledger or CostLedger(metrics=metrics)

    @staticmethod
    def from_tables(
        tables: list[Table],
        cost_model: CostModel | None = None,
        analyze: bool = False,
        metrics: MetricsRegistry | NullMetricsRegistry | None = None,
    ) -> "CloudDatabaseServer":
        """Build a server hosting ``tables``; ``analyze`` pre-builds histograms."""
        server = CloudDatabaseServer(
            Database.from_tables(tables), cost_model, metrics=metrics
        )
        if analyze:
            server.database.analyze_all()
        return server

    def connect(self) -> Connection:
        """Open a connection, charging the connection-setup latency."""
        cost = self.cost_model.connect_latency
        self.ledger.record_connection(cost)
        self.cost_model.sleep(cost)
        return Connection(self.database, self.cost_model, self.ledger)

    @property
    def total_columns(self) -> int:
        return self.database.total_columns

    def scanned_ratio(self) -> float:
        """Ratio of scanned columns over all hosted columns (Fig. 5 metric)."""
        return self.ledger.scanned_ratio(self.total_columns)

    def reset_ledger(self) -> None:
        self.ledger.reset()
