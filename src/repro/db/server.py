"""The cloud-side view of a tenant database: connections + latency model.

In the paper's production setup the detection service (on ECS) talks to the
tenant's RDS MySQL over a VPC. :class:`CloudDatabaseServer` models that
boundary: it owns the latency model, and hands out
:class:`~repro.db.connection.Connection` objects whose every operation is
charged. The server counts round trips only in its ``db.*`` metrics; what
they cost a run is billed to that run (see :mod:`repro.db.cost`).
"""

from __future__ import annotations

from ..datagen.tables import Table
from ..obs.metrics import MetricsRegistry, NullMetricsRegistry, global_registry
from .connection import Connection
from .cost import CostModel, charge
from .engine import Database

__all__ = ["CloudDatabaseServer"]


class CloudDatabaseServer:
    """Hosts a :class:`Database` behind a latency-charging connection API."""

    def __init__(
        self,
        database: Database,
        cost_model: CostModel | None = None,
        metrics: MetricsRegistry | NullMetricsRegistry | None = None,
    ) -> None:
        self.database = database
        self.cost_model = cost_model or CostModel()
        self.metrics = metrics if metrics is not None else global_registry()

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
        charge(self.metrics, "connect", cost)
        self.cost_model.sleep(cost)
        return Connection(self.database, self.cost_model, self.metrics)
