"""A prep stage gives its slot back while it sits in a real database wait.

``prep_workers`` counts prep stages on the CPU; a stage blocked in
:func:`repro.db.cost.wait` (a charged round trip, an injected fault delay,
a retry backoff) holds a TP1 thread but no slot, so other prep stages
start meanwhile. These tests drive that path with real (short) sleeps and
check what must not move: predictions, the ledger, the degraded set — and
that a run that never sleeps never oversubscribes.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core import (
    DetectOptions,
    DetectorConfig,
    PipelinedExecutor,
    RuntimeConfig,
    TasteDetector,
    ThresholdPolicy,
)
from repro.core.pipeline import PREP_THREADS, _StaticSource
from repro.db import CloudDatabaseServer, CostModel
from repro.db.cost import wait
from repro.faults import FaultPlan, FaultRule, RetryPolicy
from repro.obs import MetricsRegistry, Tracer

# Every charged latency a power of two, so the ledger's float sum of
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
        # Exact: every round trip of a prep stage gave its slot back once;
        # the batch connect runs before the pipeline and holds no slot.
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
        # the one wait point, each giving its slot back exactly once.
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
        # Each backoff gave its slot back once, and nothing else waited.
        assert metrics.counter("pipeline.db_waits", pool="prep").value == report.retries


class SleepyJob:
    """One prep stage: a real wait, then a little bookkeeping."""

    def __init__(self, seconds: float, tally: dict, lock: threading.Lock) -> None:
        self.seconds = seconds
        self.tally = tally
        self.lock = lock
        self.completed_stages = 0

    @property
    def done(self) -> bool:
        return self.completed_stages >= 1

    def next_stage_kind(self):
        return None if self.done else "prep"

    def run_next_stage(self) -> None:
        wait(self.seconds)
        with self.lock:
            self.tally["outstanding"] -= 1
        self.completed_stages = 1


class CountingSource(_StaticSource):
    """Counts stages handed to TP1 and not yet finished, at each dispatch."""

    def __init__(self, jobs, tally: dict, lock: threading.Lock) -> None:
        super().__init__(jobs)
        self.tally = tally
        self.lock = lock

    def note_dispatch(self, job, kind) -> None:
        with self.lock:
            self.tally["outstanding"] += 1
            self.tally["peak"] = max(self.tally["peak"], self.tally["outstanding"])


def test_dispatch_never_exceeds_tp1_threads():
    """Three TP1-fulls of sleepers on one slot, with rapid thread switches:
    no stage is handed to TP1 while every thread holds an unfinished one
    (it would sit in the executor's queue counted as running), and every
    slot given back is taken back."""
    tally = {"outstanding": 0, "peak": 0}
    lock = threading.Lock()
    jobs = [SleepyJob(0.05, tally, lock) for _ in range(3 * PREP_THREADS)]
    source = CountingSource(jobs, tally, lock)
    metrics = MetricsRegistry()
    executor = PipelinedExecutor(prep_workers=1, infer_workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runner = threading.Thread(
            target=executor.run_source, args=(source,), kwargs={"metrics": metrics}
        )
        runner.start()
        runner.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert not source.failures
    assert all(job.done for job in jobs)
    # Every thread held a sleeper at once, and never one more.
    assert tally["peak"] == PREP_THREADS
    assert 1 < metrics.gauge("pipeline.waiting").peak <= PREP_THREADS
    assert metrics.gauge("pipeline.waiting").value == 0
    assert metrics.gauge("pipeline.in_flight", pool="prep").value == 0
    assert metrics.counter("pipeline.db_waits", pool="prep").value == len(jobs)
    assert metrics.counter("pipeline.wait_timeouts").value == 0
