"""Tests for the multi-tenant detection service (repro.serve).

Functional behaviour of one service over one warm detector: admission
control, the job lifecycle (streaming, results, cancellation, deadlines)
and — the load-bearing property — bitwise equivalence between the
service path and a direct ``detect()`` call, including under an active
fault plan.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core import DetectOptions, DetectorConfig, RuntimeConfig, TasteDetector, ThresholdPolicy
from repro.db import CloudDatabaseServer, CostModel
from repro.errors import Cancelled, Overloaded, ServiceError
from repro.faults import FaultPlan, FaultRule
from repro.obs import MetricsRegistry, Tracer
from repro.serve import DetectionService, ServiceConfig, TenantQuota, TokenBucket

FAST = CostModel(time_scale=0.0)


@pytest.fixture()
def server(tiny_corpus):
    return CloudDatabaseServer.from_tables(tiny_corpus.test, FAST)


def make_detector(trained_model, featurizer, **runtime_kwargs):
    return TasteDetector(
        trained_model,
        featurizer,
        ThresholdPolicy(0.1, 0.9),
        config=DetectorConfig(pipelined=True),
        runtime=RuntimeConfig(metrics=MetricsRegistry(), **runtime_kwargs),
    )


@pytest.fixture()
def detector(trained_model, featurizer):
    return make_detector(trained_model, featurizer)


def prediction_key(prediction):
    return (prediction.table_name, prediction.column_name)


def assert_bitwise_equal(report_a, report_b):
    """Every prediction identical: types, phase, and exact probabilities."""
    left = sorted(report_a.predictions, key=prediction_key)
    right = sorted(report_b.predictions, key=prediction_key)
    assert [prediction_key(p) for p in left] == [prediction_key(p) for p in right]
    for a, b in zip(left, right):
        assert a.admitted_types == b.admitted_types
        assert a.phase == b.phase
        assert a.probabilities.dtype == b.probabilities.dtype
        assert np.array_equal(a.probabilities, b.probabilities)


class TestEquivalence:
    def test_service_matches_direct_detect_bitwise(
        self, detector, tiny_corpus
    ):
        names = [t.name for t in tiny_corpus.test[:6]]
        direct_server = CloudDatabaseServer.from_tables(tiny_corpus.test, FAST)
        direct = detector.detect(direct_server, names)

        serve_server = CloudDatabaseServer.from_tables(tiny_corpus.test, FAST)
        with DetectionService(detector) as service:
            handle = service.submit("tenant-a", serve_server, names)
            report = handle.result(timeout=60.0)
        assert_bitwise_equal(direct, report)
        assert report.ok

    def test_equivalence_under_fault_plan(self, detector, tiny_corpus):
        """Deterministic faults (probability=1, capped) recover by retry;
        the service report is bitwise identical to the direct one and
        both count the same number of injected faults."""
        names = [t.name for t in tiny_corpus.test[:4]]
        plan = FaultPlan(
            seed=3,
            rules=(
                FaultRule("fetch_metadata", "transient", max_faults=2),
                FaultRule("fetch_values", "transient", max_faults=1),
            ),
        )
        direct_server = CloudDatabaseServer.from_tables(tiny_corpus.test, FAST)
        direct = detector.detect(
            direct_server, names, options=DetectOptions(fault_plan=plan)
        )
        serve_server = CloudDatabaseServer.from_tables(tiny_corpus.test, FAST)
        with DetectionService(detector) as service:
            handle = service.submit(
                "tenant-a", serve_server, names, fault_plan=plan
            )
            report = handle.result(timeout=60.0)
        assert_bitwise_equal(direct, report)
        assert direct.faults_injected == 3
        assert report.faults_injected == 3

    def test_two_tenants_same_tables_are_cache_isolated(
        self, detector, tiny_corpus
    ):
        """Each table job keeps its own latents, so tenants (and servers)
        never share them, and their predictions still agree bitwise."""
        names = [t.name for t in tiny_corpus.test[:3]]
        server_a = CloudDatabaseServer.from_tables(tiny_corpus.test, FAST)
        server_b = CloudDatabaseServer.from_tables(tiny_corpus.test, FAST)
        with DetectionService(detector) as service:
            report_a = service.submit("tenant-a", server_a, names).result(timeout=60.0)
            report_b = service.submit("tenant-b", server_b, names).result(timeout=60.0)
        assert_bitwise_equal(report_a, report_b)


def test_chaos_sweep_through_service(untrained_model, featurizer, tiny_corpus):
    """A mixed fault storm pushed through the service still yields a
    complete, marked report for every job — never a crashed job or a
    wedged scheduler."""
    names = [t.name for t in tiny_corpus.tables[:4]]
    detector = make_detector(untrained_model, featurizer, tracer=Tracer(enabled=False))
    with DetectionService(detector) as service:
        for rate in (0.1, 0.3, 0.5):
            plan = FaultPlan.chaos(rate=rate, seed=11, delay=1e-4)
            handle = service.submit(
                "chaos",
                CloudDatabaseServer.from_tables(tiny_corpus.tables, FAST),
                names,
                fault_plan=plan,
            )
            report = handle.result(timeout=300.0)
            # Complete report, PR 4 semantics: every table present, the
            # storm visible only as degraded/failed markers and retries.
            assert len(report.tables) == len(names)
            assert {t.table_name for t in report.tables} == set(names)
            for table in report.tables:
                assert table.predictions or table.failed


class TestJobLifecycle:
    def test_streaming_yields_every_table_once(self, detector, server, tiny_corpus):
        names = [t.name for t in tiny_corpus.test[:5]]
        with DetectionService(detector) as service:
            handle = service.submit("tenant-a", server, names)
            streamed = [result.table_name for result in handle.stream()]
            report = handle.result(timeout=60.0)
        assert sorted(streamed) == sorted(names)
        assert len(report.tables) == len(names)

    def test_cancel_raises_cancelled(self, detector, server, tiny_corpus):
        names = [t.name for t in tiny_corpus.test]
        with DetectionService(detector) as service:
            handle = service.submit("tenant-a", server, names)
            assert handle.cancel()
            with pytest.raises(Cancelled):
                handle.result(timeout=60.0)
            assert handle.status() == "cancelled"
            assert handle.cancel() is False  # already finished

    def test_zero_deadline_returns_partial_report(
        self, detector, server, tiny_corpus
    ):
        """A deadline that has already passed degrades every table but
        still returns a well-formed (marked) report — PR 4 semantics."""
        names = [t.name for t in tiny_corpus.test[:4]]
        with DetectionService(detector) as service:
            handle = service.submit("tenant-a", server, names, deadline=0.0)
            report = handle.result(timeout=60.0)
        assert not report.ok
        assert len(report.tables) == len(names)
        for table in report.tables:
            assert table.degraded or table.failed

    def test_short_deadline_partial_counts_are_consistent(
        self, detector, server, tiny_corpus
    ):
        names = [t.name for t in tiny_corpus.test[:8]]
        with DetectionService(detector) as service:
            handle = service.submit("tenant-a", server, names, deadline=0.05)
            report = handle.result(timeout=60.0)
        assert len(report.tables) == len(names)
        degraded = sum(1 for t in report.tables if t.degraded or t.failed)
        healthy = sum(
            1 for t in report.tables if not (t.degraded or t.failed)
        )
        assert degraded + healthy == len(names)

    def test_submit_requires_running_service(self, detector, server):
        service = DetectionService(detector)
        with pytest.raises(ServiceError):
            service.submit("tenant-a", server, ["orders_0"])
        with service:
            pass
        with pytest.raises(ServiceError):
            service.submit("tenant-a", server, ["orders_0"])

    def test_submit_rejects_empty_table_list(self, detector, server):
        with DetectionService(detector) as service:
            with pytest.raises(ValueError):
                service.submit("tenant-a", server, [])

    def test_sequential_detector_rejected(self, trained_model, featurizer):
        sequential = TasteDetector(
            trained_model,
            featurizer,
            config=DetectorConfig(pipelined=False),
        )
        with pytest.raises(ValueError, match="pipelined"):
            DetectionService(sequential)


class TestAdmission:
    def fixed_clock_config(self, **overrides):
        return ServiceConfig(
            quotas={"small": TenantQuota(rate_tables_per_s=1.0, burst_tables=4)},
            clock=lambda: 100.0,  # frozen: buckets never refill
            **overrides,
        )

    def test_quota_exhaustion_raises_overloaded(
        self, detector, server, tiny_corpus
    ):
        names = [t.name for t in tiny_corpus.test[:3]]
        config = self.fixed_clock_config()
        with DetectionService(detector, config) as service:
            service.submit("small", server, names).result(timeout=60.0)
            with pytest.raises(Overloaded) as excinfo:
                service.submit("small", server, names)
        assert excinfo.value.reason == "quota"
        # 3 tables against 1 remaining token at 1 token/s -> 2 s.
        assert excinfo.value.retry_after == pytest.approx(2.0)

    def test_burst_exceeding_job_is_never_admissible(self, detector, server):
        config = self.fixed_clock_config()
        with DetectionService(detector, config) as service:
            with pytest.raises(Overloaded) as excinfo:
                service.submit("small", server, [f"t{i}" for i in range(5)])
        assert excinfo.value.reason == "quota"
        assert excinfo.value.retry_after is None

    def test_overloaded_is_a_service_error(self):
        assert issubclass(Overloaded, ServiceError)
        assert issubclass(ServiceError, repro.errors.ReproError)

    def test_token_bucket_refills_at_rate(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=4, clock=lambda: now[0])
        assert bucket.try_take(4) is None  # drain the burst
        assert bucket.try_take(2) == pytest.approx(1.0)  # 2 tokens @ 2/s
        now[0] = 1.0
        assert bucket.try_take(2) is None
        assert bucket.tokens == pytest.approx(0.0)


class TestStrictAPI:
    def test_canonical_exports(self):
        for name in (
            "TasteDetector",
            "DetectorConfig",
            "RuntimeConfig",
            "DetectOptions",
            "DetectionService",
            "ServiceConfig",
            "TenantQuota",
            "JobHandle",
            "DetectionReport",
            "TableResult",
            "ColumnPrediction",
        ):
            assert name in repro.__all__
            assert getattr(repro, name) is not None


class TestErrorHierarchy:
    def test_faults_aliases_are_canonical(self):
        from repro import errors
        from repro.db import PoolExhaustedError
        from repro.faults import (
            ConnectionDroppedError,
            RetryDeadlineError,
            RetryGiveUpError,
            TransientDBError,
        )

        assert TransientDBError is errors.TransientDBError
        assert ConnectionDroppedError is errors.ConnectionDroppedError
        assert RetryGiveUpError is errors.RetryGiveUpError
        assert RetryDeadlineError is errors.RetryDeadlineError
        assert PoolExhaustedError is errors.PoolExhaustedError

    def test_one_base_class(self):
        from repro import errors

        for name in errors.__all__:
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, BaseException):
                assert issubclass(obj, errors.ReproError), name
