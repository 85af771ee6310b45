"""Tests for Algorithm 1's pipelined executor (with duck-typed fake jobs)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import PipelinedExecutor, SequentialExecutor
from repro.core.pipeline import _StaticSource
from repro.obs import MetricsRegistry


class FakeJob:
    """Duck-typed stand-in for TableJob: four stages, recorded ordering.

    Prep stages run through ``run_next_stage``; infer stages through the
    round protocol (``infer_requests`` / ``apply_inference``), with the
    job's name as its one request."""

    STAGE_KINDS = ("prep", "infer", "prep", "infer")

    def __init__(self, name: str, log: list, lock: threading.Lock, delay: float = 0.0,
                 fail_at: int | None = None):
        self.name = name
        self.log = log
        self.lock = lock
        self.delay = delay
        self.fail_at = fail_at
        self.completed_stages = 0

    @property
    def num_stages(self) -> int:
        return 4

    @property
    def done(self) -> bool:
        return self.completed_stages >= 4

    def next_stage_kind(self):
        return None if self.done else self.STAGE_KINDS[self.completed_stages]

    def run_next_stage(self) -> None:
        stage = self.completed_stages
        if self.fail_at == stage:
            raise RuntimeError(f"{self.name} fails at stage {stage}")
        if self.delay:
            time.sleep(self.delay)
        with self.lock:
            self.log.append((self.name, stage))
        self.completed_stages = stage + 1

    def infer_requests(self) -> list:
        stage = self.completed_stages
        if self.fail_at == stage:
            raise RuntimeError(f"{self.name} fails at stage {stage}")
        return [self.name]

    def apply_inference(self, results: list) -> None:
        assert results == [self.name]
        self.run_next_stage()


@pytest.fixture()
def make_jobs():
    def factory(count: int, delay: float = 0.0, fail=None):
        log: list = []
        lock = threading.Lock()
        jobs = [
            FakeJob(f"t{i}", log, lock, delay, fail_at=fail if i == 0 else None)
            for i in range(count)
        ]
        return jobs, log

    return factory


class TestSequentialExecutor:
    def test_all_stages_run_in_order(self, make_jobs):
        jobs, log = make_jobs(3)
        SequentialExecutor().run(jobs)
        assert all(job.done for job in jobs)
        # strictly table-by-table
        assert log == [(f"t{i}", s) for i in range(3) for s in range(4)]


class TestPipelinedExecutor:
    def test_all_jobs_complete(self, make_jobs):
        jobs, log = make_jobs(5)
        PipelinedExecutor(2).run(jobs)
        assert all(job.done for job in jobs)
        assert len(log) == 20

    def test_per_job_stage_order_preserved(self, make_jobs):
        jobs, log = make_jobs(4, delay=0.002)
        PipelinedExecutor(2).run(jobs)
        per_job: dict[str, list[int]] = {}
        for name, stage in log:
            per_job.setdefault(name, []).append(stage)
        for stages in per_job.values():
            assert stages == [0, 1, 2, 3]

    def test_empty_job_list(self):
        PipelinedExecutor().run([])

    def test_exception_propagates(self, make_jobs):
        jobs, _ = make_jobs(3, fail=1)
        with pytest.raises(RuntimeError, match="t0 fails"):
            PipelinedExecutor(1).run(jobs)

    def test_invalid_worker_counts(self):
        with pytest.raises(ValueError):
            PipelinedExecutor(0)
        with pytest.raises(ValueError):
            PipelinedExecutor(-1)

    def test_pipelining_overlaps_stage_kinds(self, make_jobs):
        """With delays, prep of a later table runs before infer of an
        earlier one finishes — i.e. stages of different tables interleave."""
        jobs, log = make_jobs(4, delay=0.01)
        PipelinedExecutor(2).run(jobs)
        names_in_order = [name for name, _ in log]
        # interleaved: not all of t0's stages happen before t1 starts
        first_t1 = names_in_order.index("t1")
        last_t0 = len(names_in_order) - 1 - names_in_order[::-1].index("t0")
        assert first_t1 < last_t0

    def test_no_spurious_wakeups(self, make_jobs):
        """The dispatch loop is event-driven, not polling: a 4-table run
        must never hit the safety-net wait timeout, and the loop wakes at
        most once per stage completion (16 completions here)."""
        jobs, _ = make_jobs(4, delay=0.005)
        registry = MetricsRegistry()
        PipelinedExecutor(2).run(jobs, metrics=registry)
        assert all(job.done for job in jobs)
        snapshot = registry.snapshot()
        assert snapshot["pipeline.wait_timeouts"]["value"] == 0
        assert snapshot["pipeline.wakeups"]["value"] <= 16
        assert (
            snapshot["pipeline.dispatches{pool=prep}"]["value"]
            == snapshot["pipeline.dispatches{pool=infer}"]["value"]
            == 8
        )

    def test_queue_wait_histogram_recorded(self, make_jobs):
        jobs, _ = make_jobs(3, delay=0.002)
        registry = MetricsRegistry()
        PipelinedExecutor(2).run(jobs, metrics=registry)
        for pool in ("prep", "infer"):
            hist = registry.histogram("pipeline.queue_wait_seconds", pool=pool)
            assert hist.count == 6  # two stages of each kind per table

    def test_dispatch_seconds_times_the_scan_not_the_round(self, make_jobs):
        """``pipeline.dispatch_seconds`` covers each pass's takes from the
        ready queues and its dispatches, and leaves out the inference round."""
        scan, stage = 0.005, 0.05

        class SlowScan(_StaticSource):
            def take(self, kind):
                time.sleep(scan)
                return super().take(kind)

        jobs, _ = make_jobs(3, delay=stage)
        registry = MetricsRegistry()
        PipelinedExecutor(2).run_source(SlowScan(jobs), metrics=registry)
        assert all(job.done for job in jobs)
        passes = registry.histogram("pipeline.dispatch_seconds")
        assert passes.count > 0
        assert passes.min >= scan
        assert passes.max < stage

    def test_dispatch_work_is_linear_in_the_job_count(self):
        """Each stage becomes ready once and is taken once: a 400-table run
        asks the jobs for their next stage kind (the loop and the source
        together) and the source for ready stages O(N) times, not once
        per job per pass."""
        count = 400
        calls = {"next_stage_kind": 0, "source": 0}

        class CountedJob(FakeJob):
            def next_stage_kind(self):
                calls["next_stage_kind"] += 1
                return super().next_stage_kind()

        class CountedSource(_StaticSource):
            def take(self, kind):
                calls["source"] += 1
                return super().take(kind)

        log, lock = [], threading.Lock()
        jobs = [CountedJob(f"t{i}", log, lock) for i in range(count)]
        PipelinedExecutor(2).run_source(CountedSource(jobs), MetricsRegistry())
        assert all(job.done for job in jobs)
        assert calls["next_stage_kind"] <= 8 * count
        assert calls["source"] <= 8 * count

    def test_faster_than_sequential_with_io_delays(self, make_jobs):
        delay = 0.01
        jobs_seq, _ = make_jobs(6, delay=delay)
        jobs_pipe, _ = make_jobs(6, delay=delay)

        started = time.perf_counter()
        SequentialExecutor().run(jobs_seq)
        sequential_time = time.perf_counter() - started

        started = time.perf_counter()
        PipelinedExecutor(2).run(jobs_pipe)
        pipelined_time = time.perf_counter() - started

        assert pipelined_time < sequential_time


class TestSlotRefill:
    def test_worker_refills_its_slot_while_a_round_runs(self):
        """With one prep slot, three more prep stages complete while the
        first round runs, and the next round carries all three tables.

        The first round holds ``t0`` alone: the other tables' first prep
        stage waits until that round has started. The round then blocks
        until three of those stages have been reported, which only a prep
        worker that refills its own slot can do while the loop is busy."""
        round_started, three_prepared = threading.Event(), threading.Event()

        class GatedJob(FakeJob):
            def run_next_stage(self):
                if self.name != "t0" and self.completed_stages == 0:
                    assert round_started.wait(timeout=10.0)
                super().run_next_stage()

        class CountingSource(_StaticSource):
            prepared = 0

            def note_stage_complete(self, job):
                if job.name != "t0" and job.completed_stages == 1:
                    self.prepared += 1
                    if self.prepared == 3:
                        three_prepared.set()

        class RoundRecorder:
            """Duck-typed detector: records each round's requests."""

            def __init__(self):
                self.rounds: list[list] = []
                self.refilled: bool | None = None

            def run_inference(self, requests):
                if not self.rounds:
                    round_started.set()
                    self.refilled = three_prepared.wait(timeout=5.0)
                self.rounds.append(list(requests))
                return requests

        log, lock = [], threading.Lock()
        jobs = [GatedJob(f"t{i}", log, lock) for i in range(4)]
        detector = RoundRecorder()
        registry = MetricsRegistry()
        PipelinedExecutor(1, detector=detector).run_source(CountingSource(jobs), registry)
        assert all(job.done for job in jobs)
        assert detector.refilled is True
        assert detector.rounds[:2] == [["t0"], ["t1", "t2", "t3"]]
        snapshot = registry.snapshot()
        assert (
            snapshot["pipeline.dispatches{pool=prep}"]["value"]
            == snapshot["pipeline.dispatches{pool=infer}"]["value"]
            == 8
        )
        assert snapshot["pipeline.wait_timeouts"]["value"] == 0
