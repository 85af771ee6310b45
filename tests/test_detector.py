"""End-to-end tests for the TASTE detector and its phases."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import BaselineDetector, build_turl_model
from repro.core import DetectorConfig, TasteDetector, ThresholdPolicy
from repro.db import CloudDatabaseServer, CostModel
from repro.obs import MetricsRegistry
from repro.serve import DetectionService

FAST = CostModel(time_scale=0.0)
# Power-of-two latencies: a cost's float sum is exact in any order.
EXACT = CostModel(
    connect_latency=2**-8,
    round_trip_latency=2**-9,
    metadata_per_table=2**-10,
    scan_fixed=2**-8,
    scan_per_row=2**-14,
    time_scale=0.0,
)


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

    def test_phase_assignment_consistent_with_scanning(self, detector, server, table_jobs):
        report = detector.detect(server)
        scanned_names = set().union(*(job.cost.scanned for job in table_jobs))
        assert report.cost["scanned_columns"] == len(scanned_names)
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

    def test_repeated_runs_report_equal_cost(self, detector, server):
        """A report's cost is its own run's: a second run on the same
        server costs what the first did, not the server's running total."""
        first = detector.detect(server)
        second = detector.detect(server)
        assert first.cost["connections_opened"] == 1
        assert second.cost == first.cost


class TestFreshServerCost:
    def test_every_mode_reports_what_the_server_counted(
        self, trained_model, featurizer, tiny_encoder, tiny_corpus
    ):
        """On a fresh server a run's cost is everything the server charged,
        and every TASTE mode charges what the sequential reference does."""
        names = [t.name for t in tiny_corpus.test]
        policy = ThresholdPolicy(0.1, 0.9)

        def detector(pipelined: bool) -> TasteDetector:
            return TasteDetector(
                trained_model, featurizer, policy,
                config=DetectorConfig(pipelined=pipelined),
            )

        def service_run(server):
            with DetectionService(detector(True)) as service:
                return service.submit("tenant", server, names).result(timeout=120.0)

        baseline = BaselineDetector(
            build_turl_model(tiny_encoder, tiny_corpus.registry.num_labels), featurizer
        )
        runs = {
            "sequential": lambda server: detector(False).detect(server, names),
            "pipelined": lambda server: detector(True).detect(server, names),
            "service": service_run,
            "baseline": lambda server: baseline.detect(server, names),
        }
        costs = {}
        for mode, run in runs.items():
            metrics = MetricsRegistry()
            cost = run(CloudDatabaseServer.from_tables(tiny_corpus.test, EXACT, metrics=metrics)).cost
            counted = metrics.snapshot()
            round_trips = {
                op: counted.get(f"db.round_trips{{op={op}}}", {"value": 0})["value"]
                for op in ("connect", "metadata", "scan")
            }
            assert cost["connections_opened"] == round_trips["connect"], mode
            assert cost["scan_queries"] == round_trips["scan"], mode
            assert cost["round_trips"] == sum(round_trips.values()), mode
            assert cost["rows_read"] == counted["db.rows_read"]["value"], mode
            assert cost["cells_read"] == counted["db.cells_read"]["value"], mode
            assert cost["simulated_seconds"] == counted["db.charged_seconds"]["value"], mode
            costs[mode] = cost
        assert costs["pipelined"] == costs["sequential"]
        assert costs["service"] == costs["sequential"]
        assert costs["baseline"]["scanned_columns"] == sum(t.num_columns for t in tiny_corpus.test)


class TestPrivacyMode:
    def test_no_scans_when_phase2_disabled(self, trained_model, featurizer, server):
        detector = TasteDetector(
            trained_model, featurizer, ThresholdPolicy.privacy_mode(),
            config=DetectorConfig(pipelined=False),
        )
        report = detector.detect(server)
        assert report.cost["scanned_columns"] == 0
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
        first = TasteDetector(
            trained_model, featurizer, policy,
            config=DetectorConfig(pipelined=False, scan_method="first"),
        ).detect(server_first)
        sample = TasteDetector(
            trained_model, featurizer, policy,
            config=DetectorConfig(pipelined=False, scan_method="sample"),
        ).detect(server_sample)
        assert sample.cost["simulated_seconds"] > first.cost["simulated_seconds"]

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
