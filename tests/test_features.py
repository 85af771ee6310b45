"""Tests for featurization: token streams, numeric features, batching."""

from __future__ import annotations

import numpy as np
import pytest

from repro.features import (
    NUMERIC_FEATURE_DIM,
    FeatureConfig,
    Featurizer,
    collate,
    first_non_empty,
    numeric_features,
    offline_metadata,
    split_metadata,
    tokenize_content,
    tokenize_metadata,
)
from repro.features.metadata_features import SEGMENT_COLUMN, SEGMENT_CONTENT, SEGMENT_TABLE


@pytest.fixture()
def metadata(sample_table):
    return offline_metadata(sample_table, with_histogram=True)


class TestTokenizeMetadata:
    def test_layout(self, metadata, tokenizer):
        tokens = tokenize_metadata(metadata, tokenizer)
        assert tokens.token_ids[0] == tokenizer.vocab.cls_id
        assert tokens.segment_ids[0] == SEGMENT_TABLE
        assert len(tokens.col_positions) == len(metadata.columns)
        # every [COL] marker position holds the COL token
        for position in tokens.col_positions:
            assert tokens.token_ids[position] == tokenizer.vocab.col_id

    def test_column_ids_assign_segments(self, metadata, tokenizer):
        tokens = tokenize_metadata(metadata, tokenizer)
        for index, position in enumerate(tokens.col_positions):
            assert tokens.column_ids[position] == index + 1
            assert tokens.segment_ids[position] == SEGMENT_COLUMN

    def test_table_budget_respected(self, metadata, tokenizer):
        tokens = tokenize_metadata(metadata, tokenizer, table_token_budget=4)
        assert tokens.col_positions[0] <= 4

    def test_column_budget_respected(self, metadata, tokenizer):
        tokens = tokenize_metadata(metadata, tokenizer, column_token_budget=3)
        gaps = np.diff(np.append(tokens.col_positions, len(tokens.token_ids)))
        assert (gaps <= 3).all()


class TestNumericFeatures:
    def test_dimension(self, metadata):
        vector = numeric_features(metadata.columns[0], use_histogram=False)
        assert vector.shape == (NUMERIC_FEATURE_DIM,)

    def test_raw_type_one_hot(self, metadata):
        for column in metadata.columns:
            vector = numeric_features(column, use_histogram=False)
            assert vector[:5].sum() == 1.0

    def test_histogram_block_zero_when_disabled(self, metadata):
        vector = numeric_features(metadata.columns[0], use_histogram=False)
        assert np.allclose(vector[10:], 0.0)

    def test_histogram_block_filled_when_enabled(self, metadata):
        vector = numeric_features(metadata.columns[0], use_histogram=True)
        assert vector[10] == 1.0  # availability flag

    def test_values_are_bounded(self, metadata):
        for column in metadata.columns:
            vector = numeric_features(column, use_histogram=True)
            assert np.isfinite(vector).all()
            assert (np.abs(vector) <= 2.0).all()


class TestTokenizeContent:
    def test_first_non_empty(self):
        assert first_non_empty(["", "a", "", "b", "c"], 2) == ["a", "b"]
        assert first_non_empty(["", ""], 3) == []

    def test_val_positions_mark_missing(self, tokenizer):
        tokens = tokenize_content({1: ["x"]}, num_table_columns=3, tokenizer=tokenizer)
        assert tokens.val_positions[0] == -1
        assert tokens.val_positions[2] == -1
        assert tokens.val_positions[1] >= 0
        assert tokens.token_ids[tokens.val_positions[1]] == tokenizer.vocab.val_id

    def test_empty_content(self, tokenizer):
        tokens = tokenize_content({}, num_table_columns=2, tokenizer=tokenizer)
        assert len(tokens.token_ids) == 0
        assert (tokens.val_positions == -1).all()

    def test_out_of_range_rejected(self, tokenizer):
        with pytest.raises(IndexError):
            tokenize_content({5: ["x"]}, num_table_columns=3, tokenizer=tokenizer)

    def test_per_column_token_cap(self, tokenizer):
        values = ["word another thing more stuff"] * 50
        tokens = tokenize_content(
            {0: values}, num_table_columns=1, tokenizer=tokenizer,
            cells_per_column=50, max_tokens_per_column=10,
        )
        assert len(tokens.token_ids) <= 10

    def test_cell_budget(self, tokenizer):
        tokens_small = tokenize_content(
            {0: ["alpha beta gamma delta epsilon"]}, 1, tokenizer, cell_token_budget=2
        )
        tokens_large = tokenize_content(
            {0: ["alpha beta gamma delta epsilon"]}, 1, tokenizer, cell_token_budget=5
        )
        assert len(tokens_small.token_ids) < len(tokens_large.token_ids)


class TestFeaturizerAndCollate:
    def test_encode_offline_shapes(self, featurizer, sample_table):
        encoded = featurizer.encode_offline(sample_table)
        assert encoded.num_columns == sample_table.num_columns
        assert encoded.numeric.shape == (sample_table.num_columns, NUMERIC_FEATURE_DIM)
        assert encoded.labels.shape[0] == sample_table.num_columns
        assert (encoded.content.val_positions >= 0).all()

    def test_encode_without_content(self, featurizer, sample_table):
        encoded = featurizer.encode_offline(sample_table, with_content=False)
        assert (encoded.content.val_positions == -1).all()

    def test_phase2_encoding_reuses_phase1_and_equals_a_fresh_encode(
        self, featurizer, sample_table
    ):
        """``with_content`` shares the Phase-1 metadata tokens and numeric
        features and tokenizes only the content, and its arrays equal a
        fresh ``encode`` of the same metadata and content."""
        metadata = offline_metadata(sample_table)
        content = {0: sample_table.columns[0].values[:10]}
        phase1 = featurizer.encode(metadata)
        phase2 = featurizer.with_content(phase1, content)
        fresh = featurizer.encode(metadata, content)
        assert phase2.meta is phase1.meta and phase2.numeric is phase1.numeric
        for name in ("token_ids", "segment_ids", "column_ids", "col_positions"):
            assert np.array_equal(getattr(phase2.meta, name), getattr(fresh.meta, name))
        for name in ("token_ids", "segment_ids", "column_ids", "val_positions"):
            assert np.array_equal(getattr(phase2.content, name), getattr(fresh.content, name))
        assert phase2.numeric.tobytes() == fresh.numeric.tobytes()
        assert (phase2.table_name, phase2.column_names) == (fresh.table_name, fresh.column_names)

    def test_label_mismatch_raises(self, featurizer, sample_table):
        metadata = offline_metadata(sample_table)
        with pytest.raises(ValueError):
            featurizer.encode(metadata, labels=[["geo.city"]])

    def test_collate_pads_and_masks(self, featurizer, tiny_corpus):
        encoded = [featurizer.encode_offline(t) for t in tiny_corpus.tables[:4]]
        batch = collate(encoded)
        assert batch.size == 4
        assert batch.meta_ids.shape == batch.meta_mask.shape
        for row, table in enumerate(encoded):
            length = len(table.meta.token_ids)
            assert batch.meta_mask[row, :length].all()
            assert not batch.meta_mask[row, length:].any()
            assert batch.column_mask[row].sum() == table.num_columns

    def test_collate_empty_raises(self):
        with pytest.raises(ValueError):
            collate([])

    def test_collate_labels_present(self, featurizer, tiny_corpus):
        encoded = [featurizer.encode_offline(t) for t in tiny_corpus.tables[:2]]
        batch = collate(encoded)
        assert batch.labels is not None
        assert batch.labels.shape[:2] == batch.column_mask.shape

    def test_collate_no_labels(self, featurizer, tiny_corpus):
        encoded = [
            featurizer.encode_offline(t, with_labels=False)
            for t in tiny_corpus.tables[:2]
        ]
        assert collate(encoded).labels is None


class TestSplitMetadata:
    def test_chunks_cover_columns(self, metadata):
        chunks = split_metadata(metadata, 2)
        total = sum(len(c.columns) for c in chunks)
        assert total == len(metadata.columns)
        assert all(len(c.columns) <= 2 for c in chunks)

    def test_table_metadata_replicated(self, metadata):
        for chunk in split_metadata(metadata, 2):
            assert chunk.name == metadata.name
            assert chunk.comment == metadata.comment

    def test_no_split_when_narrow(self, metadata):
        assert split_metadata(metadata, 100) == [metadata]

    def test_invalid_threshold(self, metadata):
        with pytest.raises(ValueError):
            split_metadata(metadata, 0)


class TestOfflineMetadata:
    def test_matches_table(self, sample_table):
        metadata = offline_metadata(sample_table)
        assert metadata.name == sample_table.name
        assert len(metadata.columns) == sample_table.num_columns
        assert metadata.num_rows == sample_table.num_rows

    def test_histogram_flag(self, sample_table):
        with_hist = offline_metadata(sample_table, with_histogram=True)
        without = offline_metadata(sample_table, with_histogram=False)
        assert with_hist.columns[0].histogram is not None
        assert without.columns[0].histogram is None
