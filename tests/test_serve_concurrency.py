"""Concurrency tests for the detection service: fairness, shedding,
cancellation hygiene and many-tenant parallel submission.

These tests exercise the scheduler with real threads and real (tiny)
model inference; assertions avoid wall-clock precision and instead check
ordering facts (a small job finishes while a big one is still live) and
conservation facts (no connection leaks, every admitted job reaches a
terminal state).
"""

from __future__ import annotations

import gc
import threading
import time
import weakref
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DetectorConfig, RuntimeConfig, TasteDetector, ThresholdPolicy
from repro.db import CloudDatabaseServer, CostModel
from repro.errors import Cancelled, Overloaded
from repro.faults import FaultPlan, FaultRule
from repro.obs import MetricsRegistry
from repro.serve import DetectionService, ServiceConfig, TenantQuota
from repro.serve import job as job_module
from repro.serve import service as service_module
from repro.serve.job import Job, JobStatus
from repro.serve.service import _ServiceSource
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
            assert small.status() == "completed"
            big_report = big.result(timeout=300.0)
        # The dispatch thread stamps each job's end under the condition, so
        # this orders the two ends without racing it for a live status.
        assert small._job.finished_perf < big._job.finished_perf
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

    def test_priority_job_waits_at_most_for_the_round_in_flight(
        self, detector, server, tiny_corpus, monkeypatch
    ):
        """Rounds have no budget, so a 40-table priority-0 job fills each
        round with all its ready tables. A priority-10 job submitted while
        such a round is in flight waits only for that round: its stages
        dispatch first in the next pass, ahead of every further
        priority-0 infer stage, and no stage of a kind dispatches past an
        idle higher-priority one."""
        names = [t.name for t in tiny_corpus.test]
        low_names = names * -(-40 // len(names))
        round_started, release = threading.Event(), threading.Event()
        run_inference = detector.run_inference

        def held(requests):
            if not round_started.is_set():
                round_started.set()
                assert release.wait(timeout=60.0)
            return run_inference(requests)

        monkeypatch.setattr(detector, "run_inference", held)
        dispatched, violations = [], []
        with DetectionService(detector) as service:
            source = service._source
            note_dispatch = source.note_dispatch

            def spy(table_job, kind):
                # The dispatch loop calls this with the condition held.
                job = source._job_of[id(table_job)]
                dispatched.append((job.priority, kind))
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
            low = service.submit("tenant-a", server, low_names, priority=0)
            assert round_started.wait(timeout=60.0)
            # While the first round is held, the prep workers refill their
            # slots until every low table is infer-ready, then go idle.
            deadline = time.monotonic() + 60.0
            while any(t.completed_stages < 1 for t in low._job.table_jobs):
                assert time.monotonic() < deadline
                time.sleep(0.001)
            prep_in_flight = detector.metrics.gauge("pipeline.in_flight", pool="prep")
            with source.condition:
                # A prep worker counts its stage done before it re-takes
                # the condition and frees its slot; until every slot is
                # free, the high job's second prep stage could lose one to
                # the next round.
                assert source.condition.wait_for(
                    lambda: prep_in_flight.value == 0, timeout=60.0
                )
                mark = len(dispatched)
                high = service.submit("tenant-b", server, names[:2], priority=10)
            release.set()
            reports = [high.result(timeout=120.0), low.result(timeout=300.0)]
        assert len(low_names) >= 40
        assert not violations
        after = dispatched[mark:]
        assert after[:2] == [(10, "prep"), (10, "prep")]
        assert (0, "infer") in after
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


    def test_job_shed_by_a_full_queue_spends_no_quota(
        self, detector, server, tiny_corpus
    ):
        names = ([t.name for t in tiny_corpus.test] * 5)[:5]
        config = ServiceConfig(
            max_queue_depth=1,
            default_quota=TenantQuota(rate_tables_per_s=1e-9, burst_tables=10),
            clock=lambda: 0.0,  # frozen: no refill during the test
        )
        with DetectionService(detector, config) as service:
            source = service._source
            # Held: the first job stays queued while the second is shed.
            with source.condition:
                first = service.submit("tenant-a", server, names)
                with pytest.raises(Overloaded) as excinfo:
                    service.submit("tenant-a", server, names)
            assert excinfo.value.reason == "queue"
            first.result(timeout=120.0)
            # Only the enqueued job's 5 tables were spent.
            assert source._admission._bucket("tenant-a").tokens == 5.0
            third = service.submit("tenant-a", server, names)
            assert third.result(timeout=120.0).ok


class TestCost:
    """A job's ``cost`` is what its own round trips cost."""

    COUNTS = ("metadata_requests", "scan_queries", "rows_read", "cells_read", "scanned_columns")

    def test_concurrent_jobs_each_report_their_own_cost(
        self, detector, tiny_corpus
    ):
        names = [t.name for t in tiny_corpus.test]
        metrics = MetricsRegistry()
        server = CloudDatabaseServer.from_tables(tiny_corpus.test, FAST, metrics=metrics)
        with DetectionService(detector) as service:
            alone = service.submit("tenant-a", server, names).result(timeout=120.0)
            before = metrics.snapshot()
            with service._source.condition:  # both queued before either runs
                handles = [service.submit("tenant-a", server, names) for _ in range(2)]
            reports = [handle.result(timeout=120.0) for handle in handles]
            after = metrics.snapshot()
        for report in reports:
            assert report.ok
            for key in self.COUNTS:
                assert report.cost[key] == alone.cost[key], key
            assert (
                report.cost["round_trips"] - report.cost["connections_opened"]
                == alone.cost["round_trips"] - alone.cost["connections_opened"]
            )

        def delta(name: str) -> float:
            return after.get(name, {}).get("value", 0) - before.get(name, {}).get("value", 0)

        def total(key: str) -> float:
            return sum(report.cost[key] for report in reports)

        assert delta("db.round_trips{op=connect}") == total("connections_opened")
        assert delta("db.round_trips{op=scan}") == total("scan_queries")
        assert sum(
            delta(f"db.round_trips{{op={op}}}") for op in ("connect", "metadata", "scan")
        ) == total("round_trips")
        assert delta("db.rows_read") == total("rows_read")
        assert delta("db.cells_read") == total("cells_read")
        assert delta("db.charged_seconds") == pytest.approx(total("simulated_seconds"))


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


class TestReadyQueues:
    def test_cancelled_and_expired_jobs_leave_nothing_in_the_source(
        self, detector, server, tiny_corpus
    ):
        """Tables a cancellation or an expiry skips never run again, so the
        source must drop them from its queues and forget their jobs."""
        names = [t.name for t in tiny_corpus.test]
        # Every table but the first name's copies owes a half-second delay
        # on its first fetch, so when a cancelled job streams its first
        # table, the others are still mid-stage however fast the rest runs.
        slow_server = CloudDatabaseServer.from_tables(
            tiny_corpus.test,
            CostModel(
                connect_latency=0.0,
                round_trip_latency=0.0,
                metadata_per_table=0.0,
                scan_fixed=0.0,
                scan_per_row=0.0,
                sampling_overhead=0.0,
                time_scale=1.0,
            ),
        )
        gate = FaultPlan(
            seed=0,
            rules=(FaultRule("fetch_metadata", "latency", delay=0.5, tables=tuple(names[1:])),),
        )
        with DetectionService(detector) as service:
            source = service._source
            cancelled = [
                service.submit(f"tenant-{i}", slow_server, names * 4, fault_plan=gate)
                for i in range(2)
            ]
            for handle in cancelled:
                next(handle.stream())  # under way, with tables still to finish
                handle.cancel()
            expired = [
                service.submit("tenant-c", server, names * 4, deadline=deadline)
                for deadline in (0.0, 0.02)
            ]
            for handle in cancelled:
                with pytest.raises(Cancelled):
                    handle.result(timeout=60.0)
            for handle in expired:
                assert len(handle.result(timeout=60.0).tables) == len(names) * 4
            refs = [
                weakref.ref(table_job)
                for handle in cancelled + expired
                for table_job in handle._job.table_jobs
            ]
            assert service.submit("tenant-d", server, names[:2]).result(timeout=60.0).ok
        # stop() drained the service: the loop took until every queue was empty.
        assert source._ready == {"prep": {}, "infer": {}}
        assert not (source._deadlines or source._job_of or source._order_of)
        del cancelled, expired, handle
        gc.collect()
        assert not [ref for ref in refs if ref() is not None]


class _StubTableJob:
    """A stage machine the source can queue, expire and cancel."""

    STAGE_KINDS = ("prep", "infer", "prep", "infer")
    num_stages = 4
    result = None

    def __init__(self) -> None:
        self.completed_stages = 0

    @property
    def done(self) -> bool:
        return self.completed_stages >= self.num_stages

    def next_stage_kind(self):
        return None if self.done else self.STAGE_KINDS[self.completed_stages]

    def _give_up(self, stage, error, metrics) -> None:
        self.completed_stages = self.num_stages


class _StubService:
    """What a :class:`_ServiceSource` asks of its service."""

    metrics = MetricsRegistry()
    config = ServiceConfig(max_queue_depth=1000)

    def _finalize_job(self, job) -> None:
        job.status = JobStatus.CANCELLED if job.cancel_requested else JobStatus.COMPLETED

    def _pool_for(self, server):
        return SimpleNamespace(wake_waiters=lambda: None)


def test_source_work_per_stage_is_independent_of_job_size():
    """One 400-table job driven one stage at a time, infer first (a
    loop with one slot): the source reads a table's ``done`` a bounded
    number of times per stage, not once per done table of the job."""
    count, reads = 400, [0]

    class CountedTableJob(_StubTableJob):
        @property
        def done(self):
            reads[0] += 1
            return self.completed_stages >= self.num_stages

    source = _ServiceSource(_StubService())
    job = Job("job-1", 1, "tenant-0", None, [], 0, None, None, source.condition)
    job.table_jobs = [CountedTableJob() for _ in range(count)]
    with source.condition:
        source.enqueue(job)
        while (entry := source.take("infer") or source.take("prep")) is not None:
            table_job = entry[0]
            source.note_dispatch(table_job, table_job.next_stage_kind())
            table_job.completed_stages += 1
            source.note_stage_complete(table_job)
            if table_job.completed_stages < table_job.num_stages:
                source.ready(table_job, time.perf_counter())
    assert job.finished
    assert reads[0] <= 8 * 4 * count


_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.integers(0, 2),  # tenant
            st.integers(0, 1),  # priority
            st.integers(1, 4),  # tables
            st.none() | st.integers(0, 6),  # deadline, clock ticks from now
        ),
        st.tuples(st.just("take"), st.sampled_from(["prep", "infer"]), st.booleans()),
        st.tuples(st.just("report"), st.integers(0, 50), st.booleans()),
        st.tuples(st.just("cancel"), st.integers(0, 50)),
        st.tuples(st.just("advance"), st.integers(1, 3)),
    ),
    max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(ops=_OPS)
def test_take_returns_the_least_fairness_key(ops):
    """Every ``take(kind)`` returns the ready ``kind`` stage with the least
    ``(-priority, served, deadline, seq, index)``, the order the service
    dispatched in when it sorted every live table on each pass; put-backs
    keep their place, due deadlines expire queued tables first, and a
    drained source holds nothing."""
    clock = SimpleNamespace(
        now=0.0, monotonic=lambda: clock.now, perf_counter=time.perf_counter
    )
    source = _ServiceSource(_StubService())
    jobs: list[Job] = []
    owner: dict[int, tuple[Job, int]] = {}
    ready: dict[int, _StubTableJob] = {}
    running: list[_StubTableJob] = []
    served: dict[str, int] = {}

    def key(table_job):
        job, index = owner[id(table_job)]
        urgency = job.deadline_at if job.deadline_at is not None else float("inf")
        return (-job.priority, served.get(job.tenant, 0), urgency, job.seq, index)

    def take(kind, dispatch):
        taken = source.take(kind)
        for table_job in ready.values():
            job, _ = owner[id(table_job)]
            if job.deadline_passed():
                assert table_job.done  # expired before anything was taken
        candidates = [
            table_job
            for table_job in ready.values()
            if not table_job.done and table_job.next_stage_kind() == kind
        ]
        if taken is None:
            assert not candidates
            return None
        table_job, since = taken
        assert table_job is min(candidates, key=key)
        del ready[id(table_job)]
        if dispatch:
            source.note_dispatch(table_job, kind)
            tenant = owner[id(table_job)][0].tenant
            served[tenant] = served.get(tenant, 0) + 1
            running.append(table_job)
        else:
            source.ready(table_job, since)
            ready[id(table_job)] = table_job
        return table_job

    def report(table_job, failed):
        running.remove(table_job)
        if failed:
            source.note_stage_error(table_job, RuntimeError("stage failed"))
        else:
            table_job.completed_stages += 1
            source.note_stage_complete(table_job)
        if not table_job.done:
            source.ready(table_job, time.perf_counter())
            ready[id(table_job)] = table_job

    with mock.patch.object(service_module, "time", clock), mock.patch.object(
        job_module, "time", clock
    ), source.condition:
        for op in ops:
            if op[0] == "submit":
                _, tenant, priority, tables, deadline = op
                job = Job(
                    job_id=f"job-{len(jobs)}",
                    seq=len(jobs) + 1,
                    tenant=f"tenant-{tenant}",
                    server=None,
                    table_names=[f"t{i}" for i in range(tables)],
                    priority=priority,
                    deadline_at=None if deadline is None else clock.now + deadline,
                    fault_plan=None,
                    condition=source.condition,
                )
                job.table_jobs = [_StubTableJob() for _ in range(tables)]
                source.enqueue(job)
                jobs.append(job)
                for index, table_job in enumerate(job.table_jobs):
                    owner[id(table_job)] = (job, index)
                    ready[id(table_job)] = table_job
            elif op[0] == "take":
                take(op[1], op[2])
            elif op[0] == "report" and running:
                report(running[op[1] % len(running)], op[2])
            elif op[0] == "cancel" and jobs:
                source.cancel(jobs[op[1] % len(jobs)])
            elif op[0] == "advance":
                clock.now += op[1]
        # Drain: run every remaining stage to the end.
        while running or any(take(kind, True) for kind in ("prep", "infer")):
            while running:
                report(running[0], False)
        assert all(job.finished for job in jobs)
        assert source._ready == {"prep": {}, "infer": {}}
        assert not (source.active or source._deadlines or source._job_of)
