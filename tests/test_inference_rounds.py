"""Inference runs in rounds on the dispatch thread.

A pipelined run has no inference pool and no batcher thread: the thread
that drives :meth:`PipelinedExecutor.run_source` — the caller of
``detect()``, or a service's dispatch thread — runs every forward itself.
A round takes every table whose next stage is inference; only the
batcher cuts it, into forwards of at most ``max_batch_cols`` columns.
A forward that raises fails exactly the tables of its round: a direct
``detect()`` re-raises it, a service degrades those tables and keeps
serving, and neither leaves a connection or latents behind.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import (
    BatchingConfig,
    DetectorConfig,
    RuntimeConfig,
    TasteDetector,
    ThresholdPolicy,
)
from repro.core.phases import TableJob
from repro.core.pipeline import PipelinedExecutor
from repro.db import CloudDatabaseServer, CostModel
from repro.obs import MetricsRegistry, Tracer
from repro.sched import Phase1Request
from repro.sched import forward as sched_forward
from repro.serve import DetectionService
from tests.conftest import assert_no_leaked_connections

# Small real sleeps, so prep stages overlap rounds and rounds take
# several tables.
SLEEPING = CostModel(
    connect_latency=2**-9,
    round_trip_latency=2**-9,
    metadata_per_table=0.0,
    scan_fixed=2**-9,
    scan_per_row=0.0,
    time_scale=1.0,
)
REMOVED_THREADS = ("taste-infer", "taste-batcher")


def make_detector(model, featurizer):
    return TasteDetector(
        model,
        featurizer,
        ThresholdPolicy(0.0, 1.0),  # every column goes through Phase 2
        config=DetectorConfig(pipelined=True),
        runtime=RuntimeConfig(metrics=MetricsRegistry(), tracer=Tracer(enabled=False)),
    )


@pytest.fixture()
def forward_calls(monkeypatch):
    """Every ``run_phase1`` / ``run_phase2`` call: its thread and the names
    of all threads alive at that moment."""
    calls: list[tuple[threading.Thread, list[str]]] = []

    def spy(original):
        def forward(*args):
            names = [thread.name for thread in threading.enumerate()]
            calls.append((threading.current_thread(), names))
            return original(*args)

        return forward

    for name in ("run_phase1", "run_phase2"):
        monkeypatch.setattr(sched_forward, name, spy(getattr(sched_forward, name)))
    return calls


def assert_no_removed_threads(calls):
    for _, names in calls:
        assert not [name for name in names if name.startswith(REMOVED_THREADS)]


def test_detect_runs_inference_on_the_callers_thread(
    untrained_model, featurizer, tiny_corpus, forward_calls
):
    tables = tiny_corpus.tables[:8]
    server = CloudDatabaseServer.from_tables(tables, SLEEPING)
    report = make_detector(untrained_model, featurizer).detect(server)
    assert report.ok and report.scanned_ratio() == 1.0
    assert forward_calls
    assert {thread for thread, _ in forward_calls} == {threading.current_thread()}
    assert_no_removed_threads(forward_calls)


def test_service_runs_inference_on_its_dispatch_thread(
    untrained_model, featurizer, tiny_corpus, forward_calls
):
    tables = [table.name for table in tiny_corpus.tables[:8]]
    server = CloudDatabaseServer.from_tables(tiny_corpus.tables[:8], SLEEPING)
    with DetectionService(make_detector(untrained_model, featurizer)) as service:
        handles = [
            service.submit(tenant, server, tables[index::2])
            for index, tenant in enumerate(("tenant-a", "tenant-b"))
        ]
        reports = [handle.result(timeout=60.0) for handle in handles]
        dispatch_thread = service._thread
    assert all(report.ok for report in reports)
    assert forward_calls
    assert {thread for thread, _ in forward_calls} == {dispatch_thread}
    assert_no_removed_threads(forward_calls)


def test_a_round_takes_every_ready_table(
    untrained_model, featurizer, tiny_corpus, monkeypatch
):
    """Twelve tables are infer-ready before the loop's first take: one
    round carries all their Phase-1 requests, and the batcher cuts them,
    in order and whatever their lengths, at ``max_batch_cols`` columns."""
    tables = tiny_corpus.tables[:12]
    server = CloudDatabaseServer.from_tables(tables, CostModel(time_scale=0.0))
    metrics = MetricsRegistry()
    detector = TasteDetector(
        untrained_model,
        featurizer,
        ThresholdPolicy(0.0, 1.0),
        config=DetectorConfig(batching=BatchingConfig(max_batch_cols=8)),
        runtime=RuntimeConfig(metrics=metrics, tracer=Tracer(enabled=False)),
    )
    forwards = metrics.counter("sched.forwards")
    calls: list[tuple[list, int]] = []
    run_inference = detector.run_inference

    def recording(requests):
        before = forwards.value
        results = run_inference(requests)
        calls.append((list(requests), forwards.value - before))
        return results

    monkeypatch.setattr(detector, "run_inference", recording)
    with server.connect() as connection:
        jobs = [TableJob(detector, connection, table.name) for table in tables]
        for job in jobs:
            job.run_next_stage()  # P1 prep: every table is infer-ready
        PipelinedExecutor(2, detector=detector).run(jobs, metrics)
    assert all(job.done and not job.result.failed for job in jobs)
    phase1 = [call for call in calls if any(isinstance(r, Phase1Request) for r in call[0])]
    assert len(phase1) == 1
    requests, made = phase1[0]
    assert [request.encoded for request in requests] == [
        chunk.encoded_p1 for job in jobs for chunk in job.chunks
    ]
    # Cut in order at 8 columns, lengths mixed freely: no width groups.
    expected, cols = 0, None
    for request in requests:
        cost = sched_forward.request_cost(request)
        if cols is None or cols + cost > 8:
            expected, cols = expected + 1, cost
        else:
            cols += cost
    assert made == expected
    assert len({request.meta_width for request in requests}) > 1
    assert 1 < expected < len(requests)


@pytest.fixture()
def failing_round(monkeypatch):
    """The first Phase-2 forward raises; records the tables of its round."""
    state: dict[str, object] = {"round": [], "failed": None}
    run_round = PipelinedExecutor._run_round
    run_phase2 = sched_forward.run_phase2

    def recording_round(executor, jobs):
        state["round"] = [job.table_name for job in jobs]
        return run_round(executor, jobs)

    def raising_phase2(*args):
        if state["failed"] is None:
            state["failed"] = list(state["round"])
            raise RuntimeError("forward failed")
        return run_phase2(*args)

    monkeypatch.setattr(PipelinedExecutor, "_run_round", recording_round)
    monkeypatch.setattr(sched_forward, "run_phase2", raising_phase2)
    return state


def test_failing_forward_is_reraised_by_detect(
    untrained_model, featurizer, tiny_corpus, failing_round, table_jobs, monkeypatch
):
    server = CloudDatabaseServer.from_tables(tiny_corpus.tables[:8], SLEEPING)
    connections = []
    connect = server.connect

    def recording_connect():
        connections.append(connect())
        return connections[-1]

    monkeypatch.setattr(server, "connect", recording_connect)
    detector = make_detector(untrained_model, featurizer)
    with pytest.raises(RuntimeError, match="forward failed"):
        detector.detect(server)
    assert failing_round["failed"]
    assert len(connections) == 1 and connections[0]._closed
    # Tables the abort left mid-run keep their latents only as long as
    # their (dropped) job objects; finished ones hold none.
    assert_no_leaked_connections(table_jobs=[job for job in table_jobs if job.done])


def test_failing_forward_degrades_exactly_its_round_in_a_service(
    untrained_model, featurizer, tiny_corpus, failing_round, table_jobs
):
    names = [table.name for table in tiny_corpus.tables[:12]]
    server = CloudDatabaseServer.from_tables(tiny_corpus.tables[:12], SLEEPING)
    with DetectionService(make_detector(untrained_model, featurizer)) as service:
        handles = [
            service.submit(f"tenant-{index}", server, names[4 * index : 4 * index + 4])
            for index in range(3)
        ]
        reports = [handle.result(timeout=60.0) for handle in handles]
        later = service.submit("tenant-0", server, names[:4]).result(timeout=60.0)
    failed = failing_round["failed"]
    assert failed
    degraded = sorted(
        table.table_name for report in reports for table in report.tables if table.degraded
    )
    assert degraded == sorted(failed)
    assert not any(table.failed for report in reports for table in report.tables)
    assert later.ok and len(later.tables) == 4
    assert_no_leaked_connections(service, server, table_jobs=table_jobs)
