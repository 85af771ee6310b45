"""End-to-end featurization: tables -> padded model batches.

The :class:`Featurizer` bundles a tokenizer with the sequence budgets and
produces :class:`EncodedTable` objects; :func:`collate` pads a list of them
into one :class:`Batch` with attention masks. It also provides the offline
adapter used at training time (when tables are local and no database is
involved) and the column-splitting threshold ``l`` (paper Sec. 6.1.2).

Detection workloads re-encode the same column-name/cell strings over and
over (chunked wide tables repeat the table text; Phase 2 re-encodes the
metadata Phase 1 already saw), so the featurizer routes ``tokenizer.encode``
through a bounded LRU (:class:`TokenEncodeCache`) whose hit/miss totals are
exported as ``featurizer.encode_cache.{hits,misses}`` counters.

:func:`collate` pads to the batch's longest row; :meth:`Batch.row` cuts one
row back to what ``collate`` makes of that table alone, its real widths —
the eager reference every inference forward (:mod:`repro.sched`) equals
bit for bit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..obs.metrics import global_registry

from ..datagen.tables import Table
from ..datagen.types import TypeRegistry
from ..db.engine import Database
from ..db.schema import TableMetadata
from ..text.tokenizer import Tokenizer
from .content_features import ContentTokens, first_non_empty, tokenize_content
from .metadata_features import (
    NUMERIC_FEATURE_DIM,
    MetadataTokens,
    numeric_features,
    tokenize_metadata,
)

__all__ = [
    "FeatureConfig",
    "EncodedTable",
    "Batch",
    "Featurizer",
    "TokenEncodeCache",
    "collate",
    "offline_metadata",
    "split_metadata",
    "corpus_texts",
]


@dataclass(frozen=True)
class FeatureConfig:
    """Sequence budgets and knobs of the featurizer.

    ``cells_per_column`` is the paper's ``n``; ``scan_rows`` is ``m``;
    ``column_split_threshold`` is ``l``.
    """

    table_token_budget: int = 16
    column_token_budget: int = 8
    cell_token_budget: int = 4
    cells_per_column: int = 10
    scan_rows: int = 50
    max_tokens_per_column: int = 32
    column_split_threshold: int = 20
    use_histogram: bool = False
    max_column_id: int = 64  # size of the column-id embedding table
    encode_cache_size: int = 4096  # LRU entries for repeated-string token ids (0 = off)


@dataclass
class EncodedTable:
    """Model-ready arrays for one (possibly split) table."""

    meta: MetadataTokens
    content: ContentTokens
    numeric: np.ndarray  # (num_columns, NUMERIC_FEATURE_DIM)
    labels: np.ndarray | None = None  # (num_columns, num_labels)
    table_name: str = ""
    column_names: list[str] = field(default_factory=list)

    @property
    def num_columns(self) -> int:
        return len(self.meta.col_positions)


@dataclass
class Batch:
    """Padded batch of encoded tables.

    Shapes (``B`` tables, ``M`` metadata tokens, ``T`` content tokens,
    ``C`` columns — all padded to the batch max):

    * ``meta_ids``, ``meta_segments``, ``meta_column_ids``: ``(B, M)``
    * ``meta_mask``: ``(B, M)`` bool, True on real tokens
    * ``content_ids``, ``content_segments``, ``content_column_ids``: ``(B, T)``
    * ``content_mask``: ``(B, T)`` bool
    * ``col_positions``: ``(B, C)`` (-1 padding)
    * ``val_positions``: ``(B, C)`` (-1 where content absent)
    * ``column_mask``: ``(B, C)`` bool, True on real columns
    * ``numeric``: ``(B, C, F)``
    * ``labels``: ``(B, C, num_labels)`` or None
    """

    meta_ids: np.ndarray
    meta_segments: np.ndarray
    meta_column_ids: np.ndarray
    meta_mask: np.ndarray
    content_ids: np.ndarray
    content_segments: np.ndarray
    content_column_ids: np.ndarray
    content_mask: np.ndarray
    col_positions: np.ndarray
    val_positions: np.ndarray
    column_mask: np.ndarray
    numeric: np.ndarray
    labels: np.ndarray | None

    @property
    def size(self) -> int:
        return self.meta_ids.shape[0]

    def row(self, index: int) -> "Batch":
        """Row ``index`` as :func:`collate` makes its table alone: each
        token stream at its real length, the column axis at the table's
        columns (at least 2)."""
        widths = {
            "meta": max(int(self.meta_mask[index].sum()), 1),
            "content": max(int(self.content_mask[index].sum()), 1),
        }
        columns = max(int(self.column_mask[index].sum()), 2)
        return Batch(
            **{
                name: None
                if value is None
                else value[index : index + 1, : widths.get(name.split("_")[0], columns)]
                for name, value in vars(self).items()
            }
        )


def _pad_stack(arrays: list[np.ndarray], fill: int, width: int = 1) -> np.ndarray:
    width = max(max((len(a) for a in arrays), default=0), width)
    out = np.full((len(arrays), width), fill, dtype=np.int64)
    for row, array in enumerate(arrays):
        out[row, : len(array)] = array
    return out


class TokenEncodeCache:
    """Bounded, thread-safe LRU over :meth:`Tokenizer.encode`.

    Detection re-tokenizes the same strings constantly — a chunked wide
    table repeats its table text per chunk, Phase 2 re-encodes Phase 1's
    metadata, and real schemas reuse column names (``id``, ``name``,
    ``created_at``) across tables. Keyed on the full call signature
    ``(text, max_len, keep_punct)``; stores immutable tuples and hands
    out fresh lists so callers may mutate their copy. Exposes ``vocab``
    and ``__len__`` so it can stand in for the wrapped tokenizer inside
    the featurization helpers.
    """

    def __init__(self, tokenizer: Tokenizer, capacity: int) -> None:
        self.inner = tokenizer
        self.vocab = tokenizer.vocab
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._store: OrderedDict[tuple[str, int | None, bool], tuple[int, ...]] = OrderedDict()
        registry = global_registry()
        self._hit_counter = registry.counter("featurizer.encode_cache.hits")
        self._miss_counter = registry.counter("featurizer.encode_cache.misses")

    def encode(self, text: str, max_len: int | None = None, keep_punct: bool = False) -> list[int]:
        key = (text, max_len, keep_punct)
        with self._lock:
            cached = self._store.get(key)
            if cached is not None:
                self._store.move_to_end(key)
                self.hits += 1
                hit = True
            else:
                self.misses += 1
                hit = False
        if hit:
            self._hit_counter.inc()
            return list(cached)
        self._miss_counter.inc()
        ids = self.inner.encode(text, max_len=max_len, keep_punct=keep_punct)
        with self._lock:
            self._store[key] = tuple(ids)
            self._store.move_to_end(key)
            while len(self._store) > self.capacity:
                self._store.popitem(last=False)
        return ids

    def tokenize(self, text: str, keep_punct: bool = False) -> list[str]:
        return self.inner.tokenize(text, keep_punct=keep_punct)

    def decode(self, ids) -> list[str]:
        return self.inner.decode(ids)

    def __len__(self) -> int:
        return len(self.inner)


class Featurizer:
    """Turns table metadata (+ optional content) into model inputs."""

    def __init__(self, tokenizer: Tokenizer, registry: TypeRegistry, config: FeatureConfig) -> None:
        if isinstance(tokenizer, TokenEncodeCache):  # don't stack caches when re-wrapped
            tokenizer = tokenizer.inner
        self.tokenizer = tokenizer
        self.registry = registry
        self.config = config
        self.encode_cache: TokenEncodeCache | None = (
            TokenEncodeCache(tokenizer, config.encode_cache_size)
            if config.encode_cache_size > 0
            else None
        )

    # ------------------------------------------------------------------
    def encode(
        self,
        metadata: TableMetadata,
        content_by_column: dict[int, list[str]] | None = None,
        labels: list[list[str]] | None = None,
    ) -> EncodedTable:
        """Encode one table.

        ``content_by_column`` maps 0-based column index to scanned values;
        omit it (or pass ``{}``) for a metadata-only (Phase 1) encoding.
        ``labels`` is one list of type names per column (training only).
        """
        config = self.config
        tokenizer = self.encode_cache if self.encode_cache is not None else self.tokenizer
        meta = tokenize_metadata(
            metadata,
            tokenizer,
            table_token_budget=config.table_token_budget,
            column_token_budget=config.column_token_budget,
        )
        content = tokenize_content(
            content_by_column or {},
            num_table_columns=len(metadata.columns),
            tokenizer=tokenizer,
            cells_per_column=config.cells_per_column,
            cell_token_budget=config.cell_token_budget,
            max_tokens_per_column=config.max_tokens_per_column,
        )
        numeric = np.stack(
            [numeric_features(column, config.use_histogram) for column in metadata.columns]
        )
        label_array = None
        if labels is not None:
            if len(labels) != len(metadata.columns):
                raise ValueError(
                    f"{len(labels)} label lists for {len(metadata.columns)} columns"
                )
            label_array = np.stack(
                [self.registry.labels_to_vector(names) for names in labels]
            )
        return EncodedTable(
            meta=meta,
            content=content,
            numeric=numeric,
            labels=label_array,
            table_name=metadata.name,
            column_names=[column.column_name for column in metadata.columns],
        )

    def encode_offline(
        self, table: Table, with_content: bool = True, with_labels: bool = True
    ) -> EncodedTable:
        """Encode a local :class:`~repro.datagen.tables.Table` (training path)."""
        metadata = offline_metadata(table, with_histogram=self.config.use_histogram)
        content = None
        if with_content:
            content = {
                index: first_non_empty(
                    column.values[: self.config.scan_rows], self.config.cells_per_column
                )
                for index, column in enumerate(table.columns)
            }
        labels = [column.types for column in table.columns] if with_labels else None
        return self.encode(metadata, content, labels)


def collate(tables: list[EncodedTable], pad_id: int = 0) -> Batch:
    """Pad encoded tables into one batch, to its longest row.

    Padding only *appends* masked tokens and columns; :meth:`Batch.row`
    recovers each table as ``collate`` makes it alone.
    """
    if not tables:
        raise ValueError("cannot collate an empty batch")
    meta_ids = _pad_stack([t.meta.token_ids for t in tables], pad_id)
    meta_segments = _pad_stack([t.meta.segment_ids for t in tables], 0)
    meta_column_ids = _pad_stack([t.meta.column_ids for t in tables], 0)
    meta_mask = _pad_stack(
        [np.ones(len(t.meta.token_ids), dtype=np.int64) for t in tables], 0
    ).astype(bool)

    content_ids = _pad_stack([t.content.token_ids for t in tables], pad_id)
    content_segments = _pad_stack([t.content.segment_ids for t in tables], 0)
    content_column_ids = _pad_stack([t.content.column_ids for t in tables], 0)
    content_mask = _pad_stack(
        [np.ones(len(t.content.token_ids), dtype=np.int64) for t in tables], 0
    ).astype(bool)

    # Pad the column axis to >= 2 so the per-column products (pooling,
    # classifier heads) are never one-row BLAS calls, whose kernel sums in
    # another order than a row of a larger product: a one-column chunk
    # then computes alike alone and beside wider chunks.
    max_cols = max(max(t.num_columns for t in tables), 2)
    col_positions = _pad_stack([t.meta.col_positions for t in tables], -1, max_cols)
    val_positions = _pad_stack([t.content.val_positions for t in tables], -1, max_cols)
    column_mask = col_positions >= 0

    num_cols = col_positions.shape[1]
    feature_dim = tables[0].numeric.shape[1]
    numeric = np.zeros((len(tables), num_cols, feature_dim), dtype=np.float32)
    for row, table in enumerate(tables):
        numeric[row, : table.num_columns] = table.numeric

    labels = None
    if all(t.labels is not None for t in tables):
        num_labels = tables[0].labels.shape[1]
        labels = np.zeros((len(tables), num_cols, num_labels), dtype=np.float32)
        for row, table in enumerate(tables):
            labels[row, : table.num_columns] = table.labels

    return Batch(
        meta_ids=meta_ids,
        meta_segments=meta_segments,
        meta_column_ids=meta_column_ids,
        meta_mask=meta_mask,
        content_ids=content_ids,
        content_segments=content_segments,
        content_column_ids=content_column_ids,
        content_mask=content_mask,
        col_positions=col_positions,
        val_positions=val_positions,
        column_mask=column_mask,
        numeric=numeric,
        labels=labels,
    )


def offline_metadata(table: Table, with_histogram: bool = False) -> TableMetadata:
    """Compute :class:`TableMetadata` for a local table (no database)."""
    database = Database("offline")
    database.create_table(table)
    if with_histogram:
        database.analyze_table(table.name)
    return database.metadata(table.name)


def split_metadata(metadata: TableMetadata, max_columns: int) -> list[TableMetadata]:
    """Split wide tables' metadata into chunks of at most ``max_columns``.

    The paper's column splitting threshold ``l``: each chunk keeps the
    table-level metadata but only a slice of the columns, bounding the
    inter-column attention cost. A table without columns has no chunks,
    so it is encoded and predicted for nowhere.
    """
    if max_columns <= 0:
        raise ValueError("max_columns must be positive")
    columns = metadata.columns
    if len(columns) <= max_columns:
        return [metadata] if columns else []
    return [
        TableMetadata(
            metadata.name,
            metadata.comment,
            metadata.num_rows,
            columns[start : start + max_columns],
        )
        for start in range(0, len(columns), max_columns)
    ]


def corpus_texts(tables: list[Table]) -> list[str]:
    """All metadata and content strings of a corpus (tokenizer training)."""
    texts: list[str] = []
    for table in tables:
        texts.append(table.name)
        if table.comment:
            texts.append(table.comment)
        for column in table.columns:
            texts.append(column.name)
            if column.comment:
                texts.append(column.comment)
            texts.extend(column.non_empty_values(limit=20))
    return texts
