"""Tests for the baseline detectors."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.baselines import (
    BaselineDetector,
    BaselineTrainConfig,
    DictionaryTypeDetector,
    RegexTypeDetector,
    build_doduo_model,
    build_turl_model,
    fine_tune_baseline,
    joint_stream,
    visibility_mask,
)
from repro.datagen import values as V
from repro.db import CloudDatabaseServer, CostModel
from repro.features import collate
from repro.features.metadata_features import SEGMENT_COLUMN, SEGMENT_CONTENT, SEGMENT_TABLE

FAST = CostModel(time_scale=0.0)


@pytest.fixture()
def turl_model(tiny_encoder, tiny_corpus):
    return build_turl_model(tiny_encoder, tiny_corpus.registry.num_labels)


@pytest.fixture()
def batch(featurizer, tiny_corpus):
    return collate([featurizer.encode_offline(t) for t in tiny_corpus.tables[:3]])


class TestJointStream:
    def test_concatenation_shapes(self, batch):
        ids, segments, columns, padding = joint_stream(batch)
        total = batch.meta_ids.shape[1] + batch.content_ids.shape[1]
        assert ids.shape == (batch.size, total)
        assert segments.shape == ids.shape
        assert padding.dtype == bool


class TestVisibilityMask:
    def test_same_column_visible_across_streams(self):
        segments = np.array([[SEGMENT_TABLE, SEGMENT_COLUMN, SEGMENT_COLUMN, SEGMENT_CONTENT]])
        columns = np.array([[0, 1, 2, 1]])
        padding = np.ones((1, 4), dtype=bool)
        mask = visibility_mask(segments, columns, padding)
        assert mask.shape == (1, 1, 4, 4)
        # content token of column 1 (index 3) sees its metadata (index 1)
        assert mask[0, 0, 3, 1] == 0.0
        # ... but not column 2's metadata (index 2)
        assert mask[0, 0, 3, 2] < -1e8
        # everyone sees the table-level token
        assert (mask[0, 0, :, 0] == 0.0).all()

    def test_padding_blocked(self):
        segments = np.zeros((1, 3), dtype=int)
        columns = np.zeros((1, 3), dtype=int)
        padding = np.array([[True, True, False]])
        mask = visibility_mask(segments, columns, padding)
        assert (mask[0, 0, :, 2] < -1e8).all()


class TestSingleTowerModel:
    def test_forward_shape(self, turl_model, batch, tiny_corpus):
        logits = turl_model(batch)
        assert logits.shape == (
            batch.size,
            batch.col_positions.shape[1],
            tiny_corpus.registry.num_labels,
        )

    def test_doduo_is_larger_than_turl(self, tiny_encoder, tiny_corpus):
        turl = build_turl_model(tiny_encoder, tiny_corpus.registry.num_labels)
        doduo = build_doduo_model(tiny_encoder, tiny_corpus.registry.num_labels)
        assert doduo.num_parameters() > 2 * turl.num_parameters()

    def test_turl_uses_visibility(self, tiny_encoder, tiny_corpus):
        turl = build_turl_model(tiny_encoder, tiny_corpus.registry.num_labels)
        doduo = build_doduo_model(tiny_encoder, tiny_corpus.registry.num_labels)
        assert turl.config.column_visibility
        assert not doduo.config.column_visibility


class TestBaselineTraining:
    def test_loss_decreases(self, turl_model, featurizer, tiny_corpus):
        history = fine_tune_baseline(
            turl_model,
            featurizer,
            tiny_corpus.train[:8],
            BaselineTrainConfig(epochs=3, batch_size=4),
        )
        assert history.epoch_losses[-1] < history.epoch_losses[0]

    def test_empty_raises(self, turl_model, featurizer):
        with pytest.raises(ValueError):
            fine_tune_baseline(turl_model, featurizer, [], BaselineTrainConfig(epochs=1))


class TestBaselineDetector:
    def test_scans_every_column(self, turl_model, featurizer, tiny_corpus):
        server = CloudDatabaseServer.from_tables(tiny_corpus.test, FAST)
        report = BaselineDetector(turl_model, featurizer).detect(server)
        assert report.cost["scanned_columns"] == server.database.total_columns

    def test_without_content_scans_nothing(self, turl_model, featurizer, tiny_corpus):
        server = CloudDatabaseServer.from_tables(tiny_corpus.test, FAST)
        report = BaselineDetector(turl_model, featurizer, with_content=False).detect(server)
        assert report.cost["scanned_columns"] == 0
        assert all(p.phase == 1 for p in report.predictions)

    def test_predictions_cover_all_columns(self, turl_model, featurizer, tiny_corpus):
        server = CloudDatabaseServer.from_tables(tiny_corpus.test, FAST)
        report = BaselineDetector(turl_model, featurizer).detect(server)
        assert report.num_columns == sum(t.num_columns for t in tiny_corpus.test)

    def test_extreme_logits_read_without_overflow(self, turl_model, featurizer, tiny_corpus):
        """Logits far below float32's ``exp`` range read as probability 0,
        with no overflow warning."""
        turl_model.classifier.output.bias.data[:] = -1e3
        server = CloudDatabaseServer.from_tables(tiny_corpus.test, FAST)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = BaselineDetector(turl_model, featurizer).detect(server)
        assert report.num_columns == sum(t.num_columns for t in tiny_corpus.test)
        assert all(not p.admitted_types for p in report.predictions)

    def test_invalid_scan_method(self, turl_model, featurizer):
        with pytest.raises(ValueError):
            BaselineDetector(turl_model, featurizer, scan_method="nope")


class TestRegexDetector:
    @pytest.fixture()
    def detector(self):
        return RegexTypeDetector()

    def test_detects_formats(self, detector, rng):
        cases = {
            "person.ssn": V.ssn,
            "person.email": V.email,
            "finance.credit_card": V.credit_card,
            "web.uuid": V.uuid4,
            "time.date": V.iso_date,
        }
        for expected, generator in cases.items():
            values = [generator(rng) for _ in range(10)]
            assert expected in detector.detect_column(values)

    def test_luhn_rejects_random_digit_groups(self, detector, rng):
        fake = ["1234-5678-9012-3456"] * 10  # right shape, wrong checksum
        assert "finance.credit_card" not in detector.detect_column(fake)

    def test_free_text_matches_nothing(self, detector):
        assert detector.detect_column(["hello world", "some text"]) == []

    def test_empty_column(self, detector):
        assert detector.detect_column([]) == []
        assert detector.detect_column(["", ""]) == []

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            RegexTypeDetector(min_match_ratio=0.0)

    def test_mixed_column_below_threshold(self, detector, rng):
        values = [V.ssn(rng) for _ in range(5)] + ["noise"] * 5
        assert "person.ssn" not in detector.detect_column(values)


class TestDictionaryDetector:
    @pytest.fixture()
    def detector(self):
        return DictionaryTypeDetector()

    def test_detects_cities(self, detector, rng):
        values = [V.city(rng) for _ in range(10)]
        assert "geo.city" in detector.detect_column(values)

    def test_detects_currencies_case_insensitive(self, detector):
        assert "commerce.currency" in detector.detect_column(["USD", "EUR", "CNY"])

    def test_unknown_values(self, detector):
        assert detector.detect_column(["zzzz", "qqqq"]) == []

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            DictionaryTypeDetector(min_overlap_ratio=1.5)
