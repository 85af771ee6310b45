"""Client connection to the simulated cloud database.

Every operation that would cross the VPC network in the paper's testbed
(connection setup, ``information_schema`` queries, content scans) is
charged through :func:`~repro.db.cost.charge` — counted in the server's
``db.*`` metrics and billed to the run that made it — *and* issues a real
(scaled) sleep, so the pipelined executor genuinely overlaps I/O waits with
model compute.

A small SQL dialect is provided for realism and for driving the engine from
examples/tests; the detection framework itself uses the typed convenience
methods (:meth:`Connection.fetch_metadata`, :meth:`Connection.fetch_values`).

Supported statements::

    SHOW TABLES
    ANALYZE TABLE <name> [WITH <n> BUCKETS] [KIND equal_width|equal_height]
    SELECT * FROM information_schema.tables
    SELECT * FROM information_schema.columns [WHERE table_name = '<t>']
    SELECT <c1>[, <c2>...] FROM <t> [ORDER BY RAND(<seed>)] [LIMIT <m>]
    SELECT * FROM <t> [ORDER BY RAND(<seed>)] [LIMIT <m>]
"""

from __future__ import annotations

import re
from dataclasses import asdict

from ..obs.metrics import MetricsRegistry, NullMetricsRegistry
from .cost import CostModel, charge
from .engine import Database
from .histogram import EQUAL_WIDTH
from .schema import TableMetadata

__all__ = ["Connection", "ConnectionClosedError", "SQLSyntaxError"]


class ConnectionClosedError(RuntimeError):
    """Raised when a closed connection is used."""


class SQLSyntaxError(ValueError):
    """Raised for statements outside the supported mini-dialect."""


_SELECT_RE = re.compile(
    r"^select\s+(?P<cols>\*|[\w\s,]+?)\s+from\s+(?P<table>[\w.]+)"
    r"(?:\s+where\s+table_name\s*=\s*'(?P<where_table>[^']+)')?"
    r"(?:\s+order\s+by\s+rand\(\s*(?P<seed>\d+)?\s*\))?"
    r"(?:\s+limit\s+(?P<limit>\d+))?\s*;?\s*$",
    re.IGNORECASE,
)
_ANALYZE_RE = re.compile(
    r"^analyze\s+table\s+(?P<table>\w+)"
    r"(?:\s+with\s+(?P<buckets>\d+)\s+buckets)?"
    r"(?:\s+kind\s+(?P<kind>equal_width|equal_height))?\s*;?\s*$",
    re.IGNORECASE,
)
_SHOW_TABLES_RE = re.compile(r"^show\s+tables\s*;?\s*$", re.IGNORECASE)


class Connection:
    """A latency-charging handle on a :class:`Database`.

    Do not instantiate directly — use
    :meth:`repro.db.server.CloudDatabaseServer.connect`, which charges the
    connection-setup cost.
    """

    def __init__(
        self, database: Database, cost_model: CostModel, metrics: MetricsRegistry | NullMetricsRegistry
    ) -> None:
        self._database = database
        self._cost_model = cost_model
        self._metrics = metrics
        self._closed = False

    # ------------------------------------------------------------------
    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ConnectionClosedError("connection is closed")

    def _charge(self, seconds: float) -> None:
        self._cost_model.sleep(seconds)

    # ------------------------------------------------------------------
    # Typed API used by the detection framework
    # ------------------------------------------------------------------
    def list_tables(self) -> list[str]:
        self._check_open()
        cost = self._cost_model.round_trip_latency
        charge(self._metrics, "metadata", cost)
        self._charge(cost)
        return self._database.table_names()

    def fetch_metadata(self, table_name: str) -> TableMetadata:
        """Fetch table + column metadata (Phase 1's only data access)."""
        self._check_open()
        cost = self._cost_model.round_trip_latency + self._cost_model.metadata_per_table
        charge(self._metrics, "metadata", cost, tables=1)
        self._charge(cost)
        return self._database.metadata(table_name)

    def fetch_values(
        self,
        table_name: str,
        column_names: list[str],
        limit: int | None = None,
        sample_seed: int | None = None,
    ) -> dict[str, list[str]]:
        """Scan column content — the expensive, intrusive operation.

        Returns ``{column_name: values}``. ``sample_seed`` switches from a
        first-``limit``-rows scan to ``ORDER BY RAND(seed)`` sampling, which
        costs extra (it cannot stop early), matching the paper's observation
        that sampling is slightly slower in MySQL.
        """
        self._check_open()
        if not column_names:
            return {}
        rows = self._database.read_rows(table_name, column_names, limit, sample_seed)
        cost = (
            self._cost_model.round_trip_latency
            + self._cost_model.scan_fixed
            + self._cost_model.scan_per_row * len(rows) * len(column_names)
        )
        if sample_seed is not None:
            cost += self._cost_model.sampling_overhead
        charge(self._metrics, "scan", cost, table=table_name, columns=column_names, rows=len(rows))
        self._charge(cost)
        return {
            name: [row[i] for row in rows] for i, name in enumerate(column_names)
        }

    def analyze_table(
        self, table_name: str, kind: str = EQUAL_WIDTH, num_buckets: int = 8
    ) -> None:
        """Run ``ANALYZE TABLE`` server-side (builds histograms).

        Charged like a scan (the server reads the whole table) but does not
        count toward the detector's scanned-columns ratio: it is the *user*
        opting in to histogram statistics, as the paper assumes (Sec. 6.2).
        """
        self._check_open()
        table = self._database.table(table_name)
        cost = (
            self._cost_model.round_trip_latency
            + self._cost_model.scan_fixed
            + self._cost_model.scan_per_row * table.num_rows
        )
        charge(self._metrics, "metadata", cost)
        self._charge(cost)
        self._database.analyze_table(table_name, kind, num_buckets)

    # ------------------------------------------------------------------
    # Mini SQL dialect
    # ------------------------------------------------------------------
    def execute(self, sql: str) -> list[dict] | list[tuple]:
        """Execute one statement of the supported dialect."""
        self._check_open()
        statement = sql.strip()
        if _SHOW_TABLES_RE.match(statement):
            return [(name,) for name in self.list_tables()]

        analyze = _ANALYZE_RE.match(statement)
        if analyze:
            kind = (analyze.group("kind") or EQUAL_WIDTH).lower()
            buckets = int(analyze.group("buckets") or 8)
            self.analyze_table(analyze.group("table"), kind, buckets)
            return []

        select = _SELECT_RE.match(statement)
        if select:
            return self._execute_select(select)
        raise SQLSyntaxError(f"unsupported statement: {sql!r}")

    def _execute_select(self, match: re.Match) -> list[dict] | list[tuple]:
        table = match.group("table").lower()
        if table == "information_schema.tables":
            rows = []
            for name in self.list_tables():
                metadata = self._database.metadata(name)
                rows.append(
                    {
                        "table_name": metadata.name,
                        "table_comment": metadata.comment,
                        "table_rows": metadata.num_rows,
                    }
                )
            # One network round trip plus per-table metadata cost, exactly
            # like every other operation on this connection.
            cost = (
                self._cost_model.round_trip_latency
                + self._cost_model.metadata_per_table * len(rows)
            )
            charge(self._metrics, "metadata", cost, tables=len(rows))
            self._charge(cost)
            return rows

        if table == "information_schema.columns":
            where_table = match.group("where_table")
            names = [where_table] if where_table else self._database.table_names()
            rows = []
            for name in names:
                metadata = self.fetch_metadata(name)
                for column in metadata.columns:
                    record = asdict(column)
                    record["table_comment"] = metadata.comment
                    rows.append(record)
            return rows

        # Plain content scan.
        columns_clause = match.group("cols").strip()
        if columns_clause == "*":
            column_names = list(self._database.table(match.group("table")).columns)
        else:
            column_names = [part.strip() for part in columns_clause.split(",")]
        seed_group = match.group("seed")
        sample_seed = (
            int(seed_group) if seed_group is not None
            else (0 if "rand(" in match.string.lower() else None)
        )
        limit = int(match.group("limit")) if match.group("limit") else None
        values = self.fetch_values(match.group("table"), column_names, limit, sample_seed)
        count = len(next(iter(values.values()), []))
        return [
            tuple(values[name][row] for name in column_names) for row in range(count)
        ]
