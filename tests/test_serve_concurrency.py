"""Concurrency tests for the detection service: fairness, shedding,
cancellation hygiene and many-tenant parallel submission.

These tests exercise the scheduler with real threads and real (tiny)
model inference; assertions avoid wall-clock precision and instead check
ordering facts (a small job finishes while a big one is still live) and
conservation facts (no connection leaks, every admitted job reaches a
terminal state).
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core import DetectorConfig, RuntimeConfig, TasteDetector, ThresholdPolicy
from repro.db import CloudDatabaseServer, CostModel
from repro.errors import Cancelled, Overloaded
from repro.obs import MetricsRegistry
from repro.serve import DetectionService, ServiceConfig, TenantQuota
from tests.conftest import assert_no_leaked_connections

FAST = CostModel(time_scale=0.0)


@pytest.fixture()
def server(tiny_corpus):
    return CloudDatabaseServer.from_tables(tiny_corpus.test, FAST)


@pytest.fixture()
def detector(trained_model, featurizer):
    return TasteDetector(
        trained_model,
        featurizer,
        ThresholdPolicy(0.1, 0.9),
        config=DetectorConfig(pipelined=True),
        runtime=RuntimeConfig(metrics=MetricsRegistry()),
    )


class TestFairness:
    def test_small_job_not_starved_by_big_job(self, detector, server, tiny_corpus):
        """The acceptance scenario: a 2-table job submitted after a much
        larger job completes while the big one is still running."""
        names = [t.name for t in tiny_corpus.test]
        big_tables = names * 10  # amplify the big job without more data
        with DetectionService(detector) as service:
            big = service.submit("tenant-big", server, big_tables)
            small = service.submit("tenant-small", server, names[:2])
            small_report = small.result(timeout=120.0)
            # The small job is done; the big one must still be live.
            assert small.status() == "completed"
            assert big.status() in ("queued", "running")
            big_report = big.result(timeout=300.0)
        assert len(small_report.tables) == 2
        assert len(big_report.tables) == len(big_tables)
        assert big_report.ok and small_report.ok

    def test_priority_orders_queued_jobs(self, detector, server, tiny_corpus, monkeypatch):
        """A low-priority stage of kind K never dispatches while a
        higher-priority table sits idle with a ready stage of kind K."""
        names = [t.name for t in tiny_corpus.test]
        dispatched, violations = [], []
        with DetectionService(detector) as service:
            source = service._source
            note_dispatch = source.note_dispatch

            def spy(table_job, kind):
                # The dispatch loop calls this with the condition held.
                job = source._job_of[id(table_job)]
                dispatched.append(job.priority)
                for other in source.active:
                    if other.priority <= job.priority:
                        continue
                    for waiting in other.table_jobs:
                        if (
                            not waiting.done
                            and not other.is_running(waiting)
                            and waiting.next_stage_kind() == kind
                        ):
                            violations.append((table_job.table_name, kind, waiting.table_name))
                note_dispatch(table_job, kind)

            monkeypatch.setattr(source, "note_dispatch", spy)
            # Both jobs are queued before the dispatch loop sees either.
            with source.condition:
                low = service.submit("tenant-a", server, names * 4, priority=0)
                high = service.submit("tenant-b", server, names[:2], priority=10)
            reports = [high.result(timeout=120.0), low.result(timeout=300.0)]
        assert not violations
        assert set(dispatched) == {0, 10}
        assert all(report.ok for report in reports)


class TestShedding:
    def test_bounded_queue_sheds_with_overloaded(
        self, detector, server, tiny_corpus
    ):
        names = [t.name for t in tiny_corpus.test]
        config = ServiceConfig(max_queue_depth=2)
        with DetectionService(detector, config) as service:
            first = service.submit("tenant-a", server, names * 4)
            second = service.submit("tenant-b", server, names * 4)
            with pytest.raises(Overloaded) as excinfo:
                service.submit("tenant-c", server, names)
            assert excinfo.value.reason == "queue"
            assert service.queue_depth <= 2
            first.result(timeout=300.0)
            second.result(timeout=300.0)
        # The shed submission spent no quota-independent state: both
        # admitted jobs finished and the queue drained to zero.
        assert service.queue_depth == 0

    def test_quota_rejections_under_concurrent_submitters(
        self, detector, server, tiny_corpus
    ):
        """Many threads hammering one small quota: exactly the budget's
        worth of tables is admitted, the rest shed with Overloaded."""
        names = [t.name for t in tiny_corpus.test]
        config = ServiceConfig(
            max_queue_depth=64,
            quotas={"shared": TenantQuota(rate_tables_per_s=0.001, burst_tables=6)},
            clock=lambda: 0.0,  # frozen: no refill during the test
        )
        admitted, rejected, errors = [], [], []

        def submitter():
            try:
                handle = service.submit("shared", server, names[:2])
            except Overloaded as exc:
                rejected.append(exc)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
            else:
                admitted.append(handle)

        with DetectionService(detector, config) as service:
            threads = [threading.Thread(target=submitter) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            reports = [handle.result(timeout=120.0) for handle in admitted]
        assert not errors
        # 6 burst tokens / 2 tables per job -> exactly 3 admissions.
        assert len(admitted) == 3
        assert len(rejected) == 5
        assert all(exc.reason == "quota" for exc in rejected)
        assert all(report.ok for report in reports)


class TestCancellation:
    def test_cancel_mid_phase_leaks_nothing(self, detector, server, tiny_corpus):
        names = [t.name for t in tiny_corpus.test]
        with DetectionService(detector) as service:
            handle = service.submit("tenant-a", server, names * 4)
            # Wait until the job is genuinely mid-flight.
            deadline = time.monotonic() + 30.0
            while handle.status() == "queued" and time.monotonic() < deadline:
                time.sleep(0.002)
            assert handle.status() == "running"
            handle.cancel()
            with pytest.raises(Cancelled):
                handle.result(timeout=60.0)
            # The job's pooled connection went back to the pool even though
            # the job died mid-phase (test_stack_lock_order.py checks the
            # same after every run of the whole stack).
            assert_no_leaked_connections(service, server)
            # The service is still healthy: a fresh job completes.
            follow_up = service.submit("tenant-b", server, names[:2])
            assert follow_up.result(timeout=120.0).ok
            assert_no_leaked_connections(service, server)

    def test_stop_without_drain_cancels_live_jobs(
        self, detector, server, tiny_corpus
    ):
        names = [t.name for t in tiny_corpus.test]
        service = DetectionService(detector).start()
        handle = service.submit("tenant-a", server, names * 4)
        service.stop(drain=False)
        assert handle.status() in ("cancelled", "completed")
        if handle.status() == "cancelled":
            with pytest.raises(Cancelled):
                handle.result(timeout=1.0)


class TestManyTenants:
    def test_parallel_tenants_all_complete_and_agree(
        self, detector, tiny_corpus
    ):
        """4 tenants x 2 jobs each, submitted from 4 threads against
        separate servers: every job completes and every report is
        bitwise identical across tenants (shared warm state never bleeds
        between jobs)."""
        names = [t.name for t in tiny_corpus.test[:3]]
        servers = {
            f"tenant-{i}": CloudDatabaseServer.from_tables(tiny_corpus.test, FAST)
            for i in range(4)
        }
        results: dict[str, list] = {tenant: [] for tenant in servers}
        errors: list[BaseException] = []

        def client(tenant):
            try:
                for _ in range(2):
                    handle = service.submit(tenant, servers[tenant], names)
                    results[tenant].append(handle.result(timeout=120.0))
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        with DetectionService(detector) as service:
            threads = [
                threading.Thread(target=client, args=(tenant,))
                for tenant in servers
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        reports = [report for batch in results.values() for report in batch]
        assert len(reports) == 8
        reference = sorted(
            reports[0].predictions, key=lambda p: (p.table_name, p.column_name)
        )
        for report in reports[1:]:
            candidate = sorted(
                report.predictions, key=lambda p: (p.table_name, p.column_name)
            )
            assert len(candidate) == len(reference)
            for a, b in zip(reference, candidate):
                assert a.admitted_types == b.admitted_types
                assert np.array_equal(a.probabilities, b.probabilities)
