"""Tests for the simulated cloud database: engine, connection, server, cost."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.results import DetectionReport
from repro.datagen import TableGenConfig, default_registry, generate_table
from repro.db import (
    CloudDatabaseServer,
    ConnectionClosedError,
    CostLedger,
    CostModel,
    Database,
    SQLSyntaxError,
)
from repro.db import engine
from repro.db.cost import billed_to, total_cost
from repro.obs import MetricsRegistry

FAST = CostModel(time_scale=0.0)


def counted_round_trips(metrics: MetricsRegistry) -> float:
    """Round trips the server's ``db.round_trips`` counters hold, all ops."""
    return sum(
        series["value"]
        for name, series in metrics.snapshot().items()
        if name.startswith("db.round_trips{")
    )


@pytest.fixture()
def tables(registry, rng):
    config = TableGenConfig(min_columns=4, max_columns=6, min_rows=20, max_rows=30)
    return [generate_table(registry, config, rng, i) for i in range(4)]


@pytest.fixture()
def server(tables):
    return CloudDatabaseServer.from_tables(tables, FAST)


class TestDatabase:
    def test_create_and_lookup(self, tables):
        db = Database.from_tables(tables)
        assert set(db.table_names()) == {t.name for t in tables}
        assert tables[0].name in db

    def test_duplicate_table_rejected(self, tables):
        db = Database.from_tables(tables)
        with pytest.raises(ValueError):
            db.create_table(tables[0])

    def test_missing_table_raises(self, tables):
        db = Database.from_tables(tables)
        with pytest.raises(KeyError):
            db.table("ghost")

    def test_total_columns(self, tables):
        db = Database.from_tables(tables)
        assert db.total_columns == sum(t.num_columns for t in tables)

    def test_metadata_statistics(self, tables):
        db = Database.from_tables(tables)
        metadata = db.metadata(tables[0].name)
        assert metadata.num_rows == tables[0].num_rows
        for column_md, column in zip(metadata.columns, tables[0].columns):
            assert column_md.column_name == column.name
            assert column_md.data_type == column.raw_type
            non_empty = [v for v in column.values if v]
            assert column_md.num_distinct == len(set(non_empty))

    def test_metadata_computes_statistics_once(self, tables, monkeypatch):
        """Repeated ``metadata()`` calls return equal metadata, and each
        column's statistics are computed on the first call only."""
        computed = []
        compute = engine._column_statistics

        def counting(values):
            computed.append(values)
            return compute(values)

        monkeypatch.setattr(engine, "_column_statistics", counting)
        db = Database.from_tables(tables)
        first = db.metadata(tables[0].name)
        assert len(computed) == tables[0].num_columns
        assert db.metadata(tables[0].name) == first
        assert len(computed) == tables[0].num_columns

    @given(st.lists(st.text(max_size=40), max_size=300))
    def test_average_length_is_numpys_mean_bit_for_bit(self, values):
        _, _, avg_length, _ = engine._column_statistics(values)
        lengths = [len(value) for value in values if value]
        expected = float(np.mean(lengths)) if lengths else 0.0
        assert avg_length.hex() == expected.hex()

    def test_metadata_histogram_only_after_analyze(self, tables):
        db = Database.from_tables(tables)
        assert db.metadata(tables[0].name).columns[0].histogram is None
        db.analyze_table(tables[0].name)
        assert db.metadata(tables[0].name).columns[0].histogram is not None

    def test_read_rows_limit(self, tables):
        db = Database.from_tables(tables)
        rows = db.read_rows(tables[0].name, limit=5)
        assert len(rows) == 5
        assert len(rows[0]) == tables[0].num_columns

    def test_read_rows_column_subset(self, tables):
        db = Database.from_tables(tables)
        name = tables[0].columns[1].name
        rows = db.read_rows(tables[0].name, [name], limit=3)
        assert rows == [(v,) for v in tables[0].columns[1].values[:3]]

    def test_read_rows_sampling_deterministic(self, tables):
        db = Database.from_tables(tables)
        a = db.read_rows(tables[0].name, limit=5, sample_seed=7)
        b = db.read_rows(tables[0].name, limit=5, sample_seed=7)
        c = db.read_rows(tables[0].name, limit=5, sample_seed=8)
        assert a == b
        assert a != c or tables[0].num_rows <= 5

    def test_read_rows_unknown_column(self, tables):
        db = Database.from_tables(tables)
        with pytest.raises(KeyError):
            db.read_rows(tables[0].name, ["ghost"])


class TestConnection:
    def test_fetch_metadata_charges_ledger(self, server, tables):
        conn = server.connect()
        with billed_to(CostLedger()) as ledger:
            conn.fetch_metadata(tables[0].name)
        assert ledger.metadata_requests == 1
        assert ledger.simulated_seconds > 0

    def test_fetch_values_records_scan(self, server, tables):
        conn = server.connect()
        names = [c.name for c in tables[0].columns[:2]]
        with billed_to(CostLedger()) as ledger:
            values = conn.fetch_values(tables[0].name, names, limit=10)
        assert set(values) == set(names)
        assert ledger.scanned == {(tables[0].name, name) for name in names}
        assert ledger.rows_read == 10

    def test_fetch_values_empty_request(self, server, tables):
        conn = server.connect()
        with billed_to(CostLedger()) as ledger:
            assert conn.fetch_values(tables[0].name, []) == {}
        assert ledger.scan_queries == 0

    def test_sampling_costs_more(self, tables):
        conn = CloudDatabaseServer.from_tables(tables, FAST).connect()
        name = tables[0].columns[0].name
        with billed_to(CostLedger()) as first:
            conn.fetch_values(tables[0].name, [name], limit=5)
        with billed_to(CostLedger()) as sample:
            conn.fetch_values(tables[0].name, [name], limit=5, sample_seed=0)
        assert sample.simulated_seconds > first.simulated_seconds

    def test_closed_connection_rejected(self, server, tables):
        conn = server.connect()
        conn.close()
        with pytest.raises(ConnectionClosedError):
            conn.fetch_metadata(tables[0].name)

    def test_context_manager_closes(self, server, tables):
        with server.connect() as conn:
            conn.list_tables()
        with pytest.raises(ConnectionClosedError):
            conn.list_tables()

    def test_analyze_does_not_count_as_scan(self, server, tables):
        conn = server.connect()
        with billed_to(CostLedger()) as ledger:
            conn.analyze_table(tables[0].name)
        assert ledger.scanned == set()
        metadata = conn.fetch_metadata(tables[0].name)
        assert metadata.columns[0].histogram is not None


class TestSQLDialect:
    def test_show_tables(self, server, tables):
        rows = server.connect().execute("SHOW TABLES")
        assert (tables[0].name,) in rows

    def test_select_star_with_limit(self, server, tables):
        rows = server.connect().execute(f"SELECT * FROM {tables[0].name} LIMIT 4")
        assert len(rows) == 4
        assert len(rows[0]) == tables[0].num_columns

    def test_select_columns(self, server, tables):
        name = tables[0].columns[0].name
        rows = server.connect().execute(
            f"SELECT {name} FROM {tables[0].name} LIMIT 2"
        )
        assert rows == [(v,) for v in tables[0].columns[0].values[:2]]

    def test_order_by_rand_seed(self, server, tables):
        conn = server.connect()
        a = conn.execute(f"SELECT * FROM {tables[0].name} ORDER BY RAND(3) LIMIT 5")
        b = conn.execute(f"SELECT * FROM {tables[0].name} ORDER BY RAND(3) LIMIT 5")
        assert a == b

    def test_information_schema_columns_filtered(self, server, tables):
        rows = server.connect().execute(
            f"SELECT * FROM information_schema.columns WHERE table_name = '{tables[0].name}'"
        )
        assert len(rows) == tables[0].num_columns
        assert rows[0]["table_name"] == tables[0].name

    def test_information_schema_tables(self, server, tables):
        rows = server.connect().execute("SELECT * FROM information_schema.tables")
        assert len(rows) == len(tables)

    def test_information_schema_tables_charges_round_trip(self, tables):
        """The listing query crosses the network like everything else, so
        its charge must include the round-trip latency on top of the
        per-table metadata cost."""
        server = CloudDatabaseServer.from_tables(tables, FAST)
        conn = server.connect()
        with billed_to(CostLedger()) as ledger:
            conn.execute("SELECT * FROM information_schema.tables")
        charged = ledger.simulated_seconds
        model = server.cost_model
        # One round trip for the embedded list_tables() plus one for the
        # metadata fetch itself (previously omitted) plus per-table cost.
        assert charged == pytest.approx(
            2 * model.round_trip_latency + model.metadata_per_table * len(tables)
        )

    def test_round_trips_counted(self, tables):
        metrics = MetricsRegistry()
        server = CloudDatabaseServer.from_tables(tables, FAST, metrics=metrics)
        with billed_to(CostLedger()) as ledger:
            conn = server.connect()
            conn.fetch_metadata(tables[0].name)
            conn.fetch_values(tables[0].name, [tables[0].columns[0].name], limit=2)
        # connect + metadata + scan = 3 round trips, billed and counted alike
        assert ledger.round_trips == 3
        assert counted_round_trips(metrics) == 3

    def test_analyze_table_statement(self, server, tables):
        conn = server.connect()
        conn.execute(f"ANALYZE TABLE {tables[0].name} WITH 4 BUCKETS KIND equal_height")
        histogram = conn.fetch_metadata(tables[0].name).columns[0].histogram
        assert histogram.num_buckets == 4
        assert histogram.kind == "equal_height"

    def test_unsupported_statement(self, server):
        with pytest.raises(SQLSyntaxError):
            server.connect().execute("DROP TABLE users")


class TestCostLedger:
    def test_scanned_ratio(self, server, tables):
        conn = server.connect()
        with billed_to(CostLedger()) as ledger:
            conn.fetch_values(tables[0].name, [tables[0].columns[0].name], limit=1)
        # The paper's ratio (Sec. 6.5) over the run's own scans only.
        assert total_cost([ledger])["scanned_columns"] == 1

    def test_scanned_ratio_empty_denominator(self):
        report = DetectionReport(tables=[], wall_seconds=0.0, cost=total_cost([]))
        assert report.scanned_ratio() == 0.0

    def test_duplicate_scans_counted_once(self, server, tables):
        conn = server.connect()
        name = tables[0].columns[0].name
        with billed_to(CostLedger()) as first:
            conn.fetch_values(tables[0].name, [name], limit=1)
        with billed_to(CostLedger()) as second:
            conn.fetch_values(tables[0].name, [name], limit=1)
        cost = total_cost([first, second])
        assert cost["scan_queries"] == 2
        assert cost["scanned_columns"] == 1

    def test_unbilled_round_trips_are_only_counted(self, tables):
        """Outside a run nobody pays; the server's counters still count."""
        metrics = MetricsRegistry()
        server = CloudDatabaseServer.from_tables(tables, FAST, metrics=metrics)
        with billed_to(CostLedger()) as ledger:
            pass
        server.connect().fetch_metadata(tables[0].name)
        assert ledger == CostLedger()
        assert counted_round_trips(metrics) == 2


class TestServer:
    def test_connect_charges_cost(self, server):
        with billed_to(CostLedger()) as ledger:
            server.connect()
        assert ledger.connections_opened == 1
        assert ledger.simulated_seconds == server.cost_model.connect_latency

    def test_from_tables_analyze_flag(self, tables):
        server = CloudDatabaseServer.from_tables(tables, FAST, analyze=True)
        metadata = server.connect().fetch_metadata(tables[0].name)
        assert metadata.columns[0].histogram is not None
