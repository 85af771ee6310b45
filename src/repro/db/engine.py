"""In-memory relational storage engine (the user database stand-in).

Holds tables column-wise, computes statistics lazily, and builds histograms
on ``ANALYZE TABLE``. The engine itself charges no latency — that is the
:class:`~repro.db.connection.Connection`'s job, since in the paper's setup
all cost comes from crossing the network between the detection service and
the user's RDS instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..datagen.tables import Table
from .histogram import EQUAL_WIDTH, Histogram, build_histogram
from .schema import ColumnMetadata, TableMetadata

__all__ = ["StoredColumn", "StoredTable", "Database"]


def _column_statistics(values: list[str]) -> tuple[int, float, float, int]:
    """``(num_distinct, null_fraction, avg_length, max_length)`` of ``values``."""
    total = len(values)
    non_null = [value for value in values if value]
    null_fraction = 1.0 - len(non_null) / total if total else 0.0
    if non_null:
        lengths = [len(value) for value in non_null]
        # The correctly rounded quotient of an exact integer sum, as
        # ``float(np.mean(lengths))`` is, at a fraction of its cost.
        avg_length = sum(lengths) / len(lengths)
        max_length = int(max(lengths))
    else:
        avg_length, max_length = 0.0, 0
    return len(set(non_null)), null_fraction, avg_length, max_length


@dataclass
class StoredColumn:
    """Column payload plus lazily-computed statistics."""

    name: str
    comment: str
    data_type: str
    values: list[str]
    histogram: Histogram | None = None
    _statistics: tuple[int, float, float, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def statistics(self) -> tuple[int, float, float, int]:
        """Return ``(num_distinct, null_fraction, avg_length, max_length)``.

        Computed on the first call and kept: nothing writes ``values``
        after :meth:`Database.create_table`. Two threads racing on the
        first call compute the same tuple.
        """
        if self._statistics is None:
            self._statistics = _column_statistics(self.values)
        return self._statistics


@dataclass
class StoredTable:
    name: str
    comment: str
    columns: dict[str, StoredColumn] = field(default_factory=dict)

    @property
    def num_rows(self) -> int:
        first = next(iter(self.columns.values()), None)
        return len(first.values) if first else 0

    @property
    def num_columns(self) -> int:
        return len(self.columns)


class Database:
    """A named collection of stored tables."""

    def __init__(self, name: str = "userdb") -> None:
        self.name = name
        self._tables: dict[str, StoredTable] = {}

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def create_table(self, table: Table) -> None:
        """Materialize a :class:`repro.datagen.Table` into storage."""
        if table.name in self._tables:
            raise ValueError(f"table {table.name!r} already exists")
        names = [column.name for column in table.columns]
        if len(names) != len(set(names)):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(
                f"table {table.name!r} has duplicate column names: {duplicates}"
            )
        stored = StoredTable(table.name, table.comment)
        for column in table.columns:
            stored.columns[column.name] = StoredColumn(
                column.name, column.comment, column.raw_type, list(column.values)
            )
        self._tables[table.name] = stored

    @staticmethod
    def from_tables(tables: list[Table], name: str = "userdb") -> "Database":
        database = Database(name)
        for table in tables:
            database.create_table(table)
        return database

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------
    def table_names(self) -> list[str]:
        return list(self._tables)

    def __contains__(self, table_name: str) -> bool:
        return table_name in self._tables

    def table(self, table_name: str) -> StoredTable:
        try:
            return self._tables[table_name]
        except KeyError:
            raise KeyError(f"no table {table_name!r} in database {self.name!r}") from None

    @property
    def total_columns(self) -> int:
        return sum(table.num_columns for table in self._tables.values())

    # ------------------------------------------------------------------
    # Metadata and statistics
    # ------------------------------------------------------------------
    def metadata(self, table_name: str) -> TableMetadata:
        table = self.table(table_name)
        columns = []
        for ordinal, column in enumerate(table.columns.values()):
            ndv, null_frac, avg_len, max_len = column.statistics()
            columns.append(
                ColumnMetadata(
                    table_name=table.name,
                    column_name=column.name,
                    ordinal=ordinal,
                    data_type=column.data_type,
                    is_nullable=null_frac > 0,
                    column_comment=column.comment,
                    num_rows=table.num_rows,
                    num_distinct=ndv,
                    null_fraction=null_frac,
                    avg_length=avg_len,
                    max_length=max_len,
                    histogram=column.histogram,
                )
            )
        return TableMetadata(table.name, table.comment, table.num_rows, tuple(columns))

    def analyze_table(
        self, table_name: str, kind: str = EQUAL_WIDTH, num_buckets: int = 8
    ) -> None:
        """Build histograms for every column (MySQL ``ANALYZE TABLE``)."""
        table = self.table(table_name)
        for column in table.columns.values():
            column.histogram = build_histogram(column.values, kind, num_buckets)

    def analyze_all(self, kind: str = EQUAL_WIDTH, num_buckets: int = 8) -> None:
        for table_name in self._tables:
            self.analyze_table(table_name, kind, num_buckets)

    # ------------------------------------------------------------------
    # Data access (used by Connection, which charges the cost)
    # ------------------------------------------------------------------
    def read_rows(
        self,
        table_name: str,
        column_names: list[str] | None = None,
        limit: int | None = None,
        sample_seed: int | None = None,
    ) -> list[tuple[str, ...]]:
        """Read rows; ``sample_seed`` emulates ``ORDER BY RAND(seed)``."""
        table = self.table(table_name)
        if column_names is None:
            column_names = list(table.columns)
        missing = [name for name in column_names if name not in table.columns]
        if missing:
            raise KeyError(f"table {table_name!r} has no columns {missing}")

        num_rows = table.num_rows
        if sample_seed is not None:
            order = np.random.default_rng(sample_seed).permutation(num_rows)
        else:
            order = np.arange(num_rows)
        if limit is not None:
            order = order[:limit]

        selected = [table.columns[name].values for name in column_names]
        return [tuple(column[int(i)] for column in selected) for i in order]
