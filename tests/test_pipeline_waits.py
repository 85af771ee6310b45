"""A prep stage owes its database waits instead of sleeping them.

Inside a pipelined prep stage, :func:`repro.db.cost.wait` (a charged round
trip, an injected fault delay, a retry backoff) adds to the stage's owed
seconds and holds no thread: the stage stops after its fetch, the loop
parks the job until the fetch's due time, and the featurize part runs
after it. These tests drive that path with real (short) latencies and
check what must not move: predictions, the run's cost, the degraded set,
the exact count of waits — and that nothing reads a round trip's result
before that round trip's due time.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.core import (
    DetectOptions,
    DetectorConfig,
    PipelinedExecutor,
    RuntimeConfig,
    TasteDetector,
    ThresholdPolicy,
)
from repro.core.phases import TableJob
from repro.core.pipeline import _StaticSource
from repro.db import CloudDatabaseServer, CostModel
from repro.db.cost import wait
from repro.faults import FaultPlan, FaultRule, RetryPolicy
from repro.obs import MetricsRegistry, Tracer
from repro.serve import DetectionService

# Every charged latency a power of two, so a report's float sum of
# simulated seconds is exact in any order and compares with ``==``.
SLEEPING = CostModel(
    connect_latency=2**-6,
    round_trip_latency=2**-6,
    metadata_per_table=0.0,
    scan_fixed=2**-7,
    scan_per_row=0.0,
    time_scale=1.0,
)
FAST = CostModel(time_scale=0.0)
NUM_TABLES = 8


def make_detector(model, featurizer, metrics, retry_policy=None, **config):
    return TasteDetector(
        model,
        featurizer,
        # With an untrained model every probability hovers near 0.5, so
        # every column is uncertain: two round trips per table.
        ThresholdPolicy(0.1, 0.9),
        config=DetectorConfig(**config),
        runtime=RuntimeConfig(
            metrics=metrics,
            tracer=Tracer(enabled=False),
            retry_policy=retry_policy or RetryPolicy(),
        ),
    )


def run(model, featurizer, tables, cost_model, plan=None, retry_policy=None, **config):
    metrics = MetricsRegistry()
    detector = make_detector(model, featurizer, metrics, retry_policy, **config)
    server = CloudDatabaseServer.from_tables(tables, cost_model, metrics=metrics)
    options = DetectOptions(fault_plan=plan)
    report = detector.detect(server, [t.name for t in tables], options=options)
    return report, metrics


def fingerprint(report):
    return sorted(
        (
            p.table_name,
            p.column_name,
            p.phase,
            tuple(p.admitted_types),
            p.probabilities.dtype.str,
            p.probabilities.tobytes(),
        )
        for p in report.predictions
    )


def outcomes(report):
    return {t.table_name: (t.retries, t.degraded, t.failed) for t in report.tables}


@pytest.fixture(scope="module")
def tables(tiny_corpus):
    return tiny_corpus.tables[:NUM_TABLES]


class TestSleepingRun:
    def test_waits_overlap_beyond_one_slot(self, untrained_model, featurizer, tables):
        reference, _ = run(untrained_model, featurizer, tables, SLEEPING, pipelined=False)
        report, metrics = run(
            untrained_model, featurizer, tables, SLEEPING, pipelined=True, prep_workers=1
        )
        # One CPU slot, yet several round trips were in flight at once.
        assert metrics.gauge("pipeline.waiting").peak > 1
        assert metrics.gauge("pipeline.waiting").value == 0
        assert fingerprint(report) == fingerprint(reference)
        assert report.cost == reference.cost
        # Exact: every round trip of a prep stage was owed once; the batch
        # connect runs before the pipeline and sleeps.
        round_trips = report.cost["round_trips"]
        assert round_trips == 1 + 2 * NUM_TABLES
        assert metrics.counter("pipeline.db_waits", pool="prep").value == round_trips - 1

    def test_faults_and_backoffs_keep_the_sequential_outcome(
        self, untrained_model, featurizer, tables
    ):
        plan = FaultPlan(
            seed=5,
            rules=(
                FaultRule("fetch_metadata", "transient", probability=0.4),
                FaultRule("fetch_values", "transient", probability=0.5),
                FaultRule("fetch_values", "latency", probability=0.5, delay=2**-7),
            ),
        )
        policy = RetryPolicy(max_attempts=3, base_delay=2**-7)
        reference, _ = run(
            untrained_model, featurizer, tables, SLEEPING, plan, policy, pipelined=False
        )
        # The storm bites: retries everywhere, and some table gives up.
        assert reference.retries > NUM_TABLES
        assert any(t.degraded or t.failed for t in reference.tables)

        report, metrics = run(
            untrained_model, featurizer, tables, SLEEPING, plan, policy,
            pipelined=True, prep_workers=1,
        )
        assert outcomes(report) == outcomes(reference)
        assert fingerprint(report) == fingerprint(reference)
        assert report.cost == reference.cost
        assert metrics.gauge("pipeline.waiting").peak > 1
        # Round trips, injected delays and retry backoffs all went through
        # the one wait point, each owed exactly once.
        latency_faults = metrics.counter("faults.injected", kind="latency").value
        assert latency_faults > 0
        expected = (report.cost["round_trips"] - 1) + latency_faults + report.retries
        assert metrics.counter("pipeline.db_waits", pool="prep").value == expected


class TestNeverSleepingRun:
    def test_no_waits_and_no_oversubscription(self, untrained_model, featurizer, tables):
        reference, _ = run(untrained_model, featurizer, tables, FAST, pipelined=False)
        report, metrics = run(
            untrained_model, featurizer, tables, FAST, pipelined=True, prep_workers=2
        )
        assert fingerprint(report) == fingerprint(reference)
        assert metrics.counter("pipeline.db_waits", pool="prep").value == 0
        assert metrics.gauge("pipeline.waiting").peak == 0
        assert metrics.gauge("pipeline.in_flight", pool="prep").peak <= 2

    def test_only_retry_backoffs_wait(self, untrained_model, featurizer, tables):
        # time_scale scales charged and injected latencies, not backoffs.
        plan = FaultPlan(seed=5, rules=(FaultRule("fetch_values", "transient", probability=0.5),))
        policy = RetryPolicy(max_attempts=3, base_delay=2**-7)
        reference, _ = run(
            untrained_model, featurizer, tables, FAST, plan, policy, pipelined=False
        )
        report, metrics = run(
            untrained_model, featurizer, tables, FAST, plan, policy,
            pipelined=True, prep_workers=2,
        )
        assert report.retries > 0
        assert outcomes(report) == outcomes(reference)
        assert fingerprint(report) == fingerprint(reference)
        # Each backoff was owed once, and nothing else waited.
        assert metrics.counter("pipeline.db_waits", pool="prep").value == report.retries


class TestOwedWaits:
    def test_featurize_waits_for_its_data(
        self, untrained_model, featurizer, tables, monkeypatch
    ):
        """No featurize part starts before its fetch's end plus the latency
        that fetch was charged, though the fetches' waits hold no thread."""
        earliest: dict[tuple[int, int], float] = {}
        starts: list[tuple[float, float]] = []

        def spy_fetch(stage, fetch):
            def spied(job):
                charged = job.cost.simulated_seconds
                fetch(job)
                charged = job.cost.simulated_seconds - charged
                earliest[id(job), stage] = time.monotonic() + charged * SLEEPING.time_scale

            return spied

        def spy_featurize(stage, featurize):
            def spied(job):
                starts.append((time.monotonic(), earliest[id(job), stage]))
                featurize(job)

            return spied

        for stage, fetch, featurize in (
            (0, "prepare_phase1", "featurize_phase1"),
            (2, "prepare_phase2", "featurize_phase2"),
        ):
            monkeypatch.setattr(TableJob, fetch, spy_fetch(stage, getattr(TableJob, fetch)))
            monkeypatch.setattr(
                TableJob, featurize, spy_featurize(stage, getattr(TableJob, featurize))
            )
        report, metrics = run(
            untrained_model, featurizer, tables, SLEEPING, pipelined=True, prep_workers=1
        )
        monkeypatch.undo()
        reference, _ = run(untrained_model, featurizer, tables, SLEEPING, pipelined=False)
        assert fingerprint(report) == fingerprint(reference)
        assert len(starts) == 2 * NUM_TABLES
        assert all(started >= due for started, due in starts)
        assert metrics.gauge("pipeline.waiting").peak > 1

    def test_retry_deadline_counts_owed_backoffs(self, untrained_model, featurizer, tables):
        """A deadline that fires in the sleeping run fires in the pipelined
        one too: the retry clock counts owed backoffs as slept ones."""
        backoff = 2**-6
        faulty = tuple(table.name for table in tables[:2])
        plan = FaultPlan(seed=5, rules=(FaultRule("fetch_values", "transient", tables=faulty),))
        # Ten attempts allowed, but the fourth failure comes 3 backoffs in,
        # and a fourth backoff would end past 3.5 of them.
        policy = RetryPolicy(
            max_attempts=10, base_delay=backoff, multiplier=1.0, deadline=3.5 * backoff
        )
        reference, _ = run(
            untrained_model, featurizer, tables, SLEEPING, plan, policy, pipelined=False
        )
        assert [outcomes(reference)[name] for name in faulty] == [(3, True, False)] * 2
        report, metrics = run(
            untrained_model, featurizer, tables, SLEEPING, plan, policy,
            pipelined=True, prep_workers=1,
        )
        assert outcomes(report) == outcomes(reference)
        assert fingerprint(report) == fingerprint(reference)
        assert report.cost == reference.cost
        assert metrics.counter("faults.deadline_exceeded", stage="p2.prep").value == 2


def test_service_tables_wait_for_their_connect(
    untrained_model, featurizer, tiny_corpus, monkeypatch
):
    """A job's tables share one connection, and none completes its Phase-1
    prep before that connection's (much longer) connect was due."""
    connect_latency = 2**-3
    cost_model = CostModel(
        connect_latency=connect_latency,
        round_trip_latency=2**-8,
        metadata_per_table=0.0,
        scan_fixed=2**-8,
        scan_per_row=0.0,
        time_scale=1.0,
    )
    connected: dict[int, float] = {}  # id(server) -> its connect's due time
    server_connect = CloudDatabaseServer.connect

    def spy_connect(server):
        assert id(server) not in connected, "a second connect to one server"
        connected[id(server)] = time.perf_counter() + connect_latency
        return server_connect(server)

    monkeypatch.setattr(CloudDatabaseServer, "connect", spy_connect)
    tracer = Tracer()
    detector = TasteDetector(
        untrained_model,
        featurizer,
        ThresholdPolicy(0.1, 0.9),
        config=DetectorConfig(pipelined=True),
        runtime=RuntimeConfig(metrics=MetricsRegistry(), tracer=tracer),
    )
    tables = tiny_corpus.tables[:NUM_TABLES]
    names = [table.name for table in tables]
    servers = {
        tenant: CloudDatabaseServer.from_tables(tables, cost_model)
        for tenant in ("tenant-a", "tenant-b")
    }
    with DetectionService(detector) as service:
        handles = [service.submit(tenant, server, names) for tenant, server in servers.items()]
        reports = [handle.result(timeout=60.0) for handle in handles]
        created = [service._pools[id(server)].stats.created for server in servers.values()]
    assert all(report.ok and len(report.tables) == NUM_TABLES for report in reports)
    assert created == [1, 1]
    prep_spans = tracer.find("stage.p1.prep")
    assert len(prep_spans) == 2 * NUM_TABLES
    for span in prep_spans:
        assert span.end >= connected[id(servers[span.attributes["tenant"]])]


def test_a_parked_stage_is_dispatched_and_served_once(untrained_model, featurizer, tables):
    """On a sleeping server every prep stage parks on its round trip, and
    its featurize part runs later: the rest of the same stage. A job's
    ``served`` count and ``pipeline.dispatches`` count each stage its
    tables ran once."""
    tracer = Tracer()
    metrics = MetricsRegistry()
    detector = TasteDetector(
        untrained_model,
        featurizer,
        ThresholdPolicy(0.1, 0.9),
        config=DetectorConfig(pipelined=True),
        runtime=RuntimeConfig(metrics=metrics, tracer=tracer),
    )
    server = CloudDatabaseServer.from_tables(tables, SLEEPING)
    with DetectionService(detector) as service:
        report = service.submit("tenant-a", server, [t.name for t in tables]).result(timeout=60.0)
        served = service._source._tenant_served["tenant-a"]
    assert report.ok
    stages = {kind: 0 for kind in ("prep", "infer")}
    for span in tracer.spans():
        if span.name.startswith("stage."):
            stages[span.attributes["kind"]] += 1
    assert stages["prep"] > len(tables)  # both phases fetched
    assert metrics.counter("pipeline.db_waits", pool="prep").value >= stages["prep"]
    for kind, count in stages.items():
        assert metrics.counter("pipeline.dispatches", pool=kind).value == count
    assert served == sum(stages.values())


class SleepyJob:
    """One prep stage: a wait, then a little bookkeeping, and no second part."""

    def __init__(self, seconds: float, tally: dict, lock: threading.Lock) -> None:
        self.seconds = seconds
        self.tally = tally
        self.lock = lock
        self.completed_stages = 0
        self.due = 0.0

    @property
    def done(self) -> bool:
        return self.completed_stages >= 1

    def next_stage_kind(self):
        return None if self.done else "prep"

    def run_next_stage(self) -> None:
        self.due = time.monotonic() + self.seconds
        wait(self.seconds)
        with self.lock:
            prep_threads = sum(
                thread.name.startswith("taste-prep") for thread in threading.enumerate()
            )
            self.tally["threads"] = max(self.tally["threads"], prep_threads)
        self.completed_stages = 1


class CountingSource(_StaticSource):
    """Records how early each stage was reported against its due time."""

    def __init__(self, jobs, tally: dict, lock: threading.Lock) -> None:
        super().__init__(jobs)
        self.tally = tally
        self.lock = lock

    def note_stage_complete(self, job) -> None:
        with self.lock:
            self.tally["early"] = max(self.tally["early"], job.due - time.monotonic())


def test_every_sleeper_parks_at_once():
    """Three old thread-pools-full of sleepers on one slot, with rapid
    thread switches: every wait is in flight at once on one thread, each
    stage is reported at its due time, and the run takes one sleep."""
    seconds = 0.05
    tally = {"threads": 0, "early": float("-inf")}
    lock = threading.Lock()
    jobs = [SleepyJob(seconds, tally, lock) for _ in range(3 * 16)]
    source = CountingSource(jobs, tally, lock)
    metrics = MetricsRegistry()
    executor = PipelinedExecutor(prep_workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runner = threading.Thread(
            target=executor.run_source, args=(source,), kwargs={"metrics": metrics}
        )
        started = time.monotonic()
        runner.start()
        runner.join(timeout=30.0)
        elapsed = time.monotonic() - started
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert not source.failures
    assert all(job.done for job in jobs)
    assert metrics.gauge("pipeline.waiting").peak == len(jobs)
    assert tally["threads"] == 1
    assert tally["early"] <= 0.0
    assert elapsed < 2 * seconds
    assert metrics.gauge("pipeline.waiting").value == 0
    assert metrics.gauge("pipeline.in_flight", pool="prep").value == 0
    assert metrics.counter("pipeline.db_waits", pool="prep").value == len(jobs)
    assert metrics.counter("pipeline.wait_timeouts").value == 0
