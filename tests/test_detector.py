"""End-to-end tests for the TASTE detector and its phases."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DetectorConfig, TasteDetector, ThresholdPolicy
from repro.db import CloudDatabaseServer, CostModel

FAST = CostModel(time_scale=0.0)


@pytest.fixture()
def server(tiny_corpus):
    return CloudDatabaseServer.from_tables(tiny_corpus.test, FAST)


@pytest.fixture()
def detector(trained_model, featurizer):
    return TasteDetector(
        trained_model, featurizer, ThresholdPolicy(0.1, 0.9),
        config=DetectorConfig(pipelined=False),
    )


class TestDetection:
    def test_every_column_predicted(self, detector, server, tiny_corpus):
        report = detector.detect(server)
        expected = sum(t.num_columns for t in tiny_corpus.test)
        assert report.num_columns == expected

    def test_detect_specific_tables(self, detector, server, tiny_corpus):
        name = tiny_corpus.test[0].name
        report = detector.detect(server, [name])
        assert {p.table_name for p in report.predictions} == {name}

    def test_phase_assignment_consistent_with_scanning(self, detector, server):
        report = detector.detect(server)
        scanned_names = {
            (table, column) for table, column in server.ledger.scanned_columns
        }
        for prediction in report.predictions:
            key = (prediction.table_name, prediction.column_name)
            if prediction.phase == 2:
                assert key in scanned_names
            else:
                assert key not in scanned_names

    def test_report_cost_snapshot(self, detector, server):
        report = detector.detect(server)
        assert report.cost["metadata_requests"] >= len(report.tables)
        assert report.wall_seconds > 0

    def test_scanned_ratio_between_0_and_1(self, detector, server):
        report = detector.detect(server)
        assert 0.0 <= report.scanned_ratio() <= 1.0


class TestPrivacyMode:
    def test_no_scans_when_phase2_disabled(self, trained_model, featurizer, server):
        detector = TasteDetector(
            trained_model, featurizer, ThresholdPolicy.privacy_mode(),
            config=DetectorConfig(pipelined=False),
        )
        report = detector.detect(server)
        assert server.ledger.num_scanned_columns() == 0
        assert report.scanned_ratio() == 0.0
        assert all(p.phase == 1 for p in report.predictions)


class TestUncertainColumns:
    def test_wide_band_scans_everything(self, trained_model, featurizer, server):
        """alpha=0, beta=1 makes every probability uncertain -> scan all."""
        detector = TasteDetector(
            trained_model, featurizer, ThresholdPolicy(0.0, 1.0),
            config=DetectorConfig(pipelined=False),
        )
        report = detector.detect(server)
        assert report.scanned_ratio() == 1.0
        assert all(p.phase == 2 for p in report.predictions)

    def test_uncertain_types_recorded(self, trained_model, featurizer, server):
        detector = TasteDetector(
            trained_model, featurizer, ThresholdPolicy(0.0, 1.0),
            config=DetectorConfig(pipelined=False),
        )
        report = detector.detect(server)
        assert all(p.uncertain_types for p in report.predictions)


class TestCaching:
    def test_cache_populated_then_hit(self, trained_model, featurizer, server):
        detector = TasteDetector(
            trained_model, featurizer, ThresholdPolicy(0.0, 1.0),
            config=DetectorConfig(caching=True, pipelined=False),
        )
        report = detector.detect(server)
        assert report.cache_hits > 0
        assert report.cache_misses == 0

    def test_caching_disabled_counts_no_misses(self, trained_model, featurizer, server):
        """Disabled-cache lookups are tracked separately, not as misses:
        the ablation never attempted them."""
        detector = TasteDetector(
            trained_model, featurizer, ThresholdPolicy(0.0, 1.0),
            config=DetectorConfig(caching=False, pipelined=False),
        )
        report = detector.detect(server)
        assert report.cache_hits == 0
        assert report.cache_misses == 0
        assert report.cache_disabled_lookups > 0

    def test_cache_and_no_cache_identical_predictions(
        self, trained_model, featurizer, tiny_corpus
    ):
        policy = ThresholdPolicy(0.0, 1.0)
        reports = []
        for caching in (True, False):
            server = CloudDatabaseServer.from_tables(tiny_corpus.test, FAST)
            detector = TasteDetector(
                trained_model, featurizer, policy,
                config=DetectorConfig(caching=caching, pipelined=False),
            )
            reports.append(detector.detect(server))
        for a, b in zip(reports[0].predictions, reports[1].predictions):
            assert a.admitted_types == b.admitted_types
            assert np.allclose(a.probabilities, b.probabilities, atol=1e-5)


class TestPipelinedEquivalence:
    def test_pipelined_and_sequential_same_predictions(
        self, trained_model, featurizer, tiny_corpus
    ):
        policy = ThresholdPolicy(0.1, 0.9)
        reports = []
        for pipelined in (False, True):
            server = CloudDatabaseServer.from_tables(tiny_corpus.test, FAST)
            detector = TasteDetector(
                trained_model, featurizer, policy,
                config=DetectorConfig(pipelined=pipelined),
            )
            reports.append(detector.detect(server))
        by_key = lambda r: {
            (p.table_name, p.column_name): (tuple(p.admitted_types), p.phase)
            for p in r.predictions
        }
        assert by_key(reports[0]) == by_key(reports[1])


class TestScanMethods:
    def test_sampling_mode_charged(self, trained_model, featurizer, tiny_corpus):
        policy = ThresholdPolicy(0.0, 1.0)  # force scans
        server_first = CloudDatabaseServer.from_tables(tiny_corpus.test, FAST)
        server_sample = CloudDatabaseServer.from_tables(tiny_corpus.test, FAST)
        TasteDetector(
            trained_model, featurizer, policy,
            config=DetectorConfig(pipelined=False, scan_method="first"),
        ).detect(server_first)
        TasteDetector(
            trained_model, featurizer, policy,
            config=DetectorConfig(pipelined=False, scan_method="sample"),
        ).detect(server_sample)
        assert (
            server_sample.ledger.simulated_seconds
            > server_first.ledger.simulated_seconds
        )

    def test_invalid_scan_method(self, trained_model, featurizer):
        with pytest.raises(ValueError):
            TasteDetector(
                trained_model, featurizer, config=DetectorConfig(scan_method="bogus")
            )


class TestWideTables:
    def test_column_splitting_covers_all_columns(
        self, trained_model, tokenizer, tiny_corpus
    ):
        from repro.features import FeatureConfig, Featurizer

        narrow = Featurizer(
            tokenizer, tiny_corpus.registry, FeatureConfig(column_split_threshold=2)
        )
        server = CloudDatabaseServer.from_tables(tiny_corpus.test[:3], FAST)
        detector = TasteDetector(
            trained_model, narrow, ThresholdPolicy(0.1, 0.9),
            config=DetectorConfig(pipelined=False),
        )
        report = detector.detect(server)
        expected = sum(t.num_columns for t in tiny_corpus.test[:3])
        assert report.num_columns == expected
