"""Lockset race detector: flags a deliberately injected unlocked write,
stays clean on guarded classes, finds a cycle in the observed lock order,
and passes the real PipelinedExecutor + ConnectionPool combination under
a two-pool stress run."""

from __future__ import annotations

import threading

import pytest

from repro.analysis import LocksetMonitor
from repro.analysis.races import self_check
from repro.core.pipeline import PipelinedExecutor
from repro.db import CloudDatabaseServer, ConnectionPool, CostModel
from repro.obs.metrics import MetricsRegistry


class RacyCounter:
    """Owns a lock but deliberately skips it on the write path."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.count = 0

    def bump(self) -> None:
        self.count += 1


class GuardedCounter:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.count = 0

    def bump(self) -> None:
        with self._lock:
            self.count += 1


def _hammer(target, threads: int = 2, iterations: int = 100) -> None:
    barrier = threading.Barrier(threads)

    def run() -> None:
        barrier.wait()
        for _ in range(iterations):
            target.bump()

    workers = [threading.Thread(target=run) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()


# ----------------------------------------------------------------------
# (a) injected race is caught
# ----------------------------------------------------------------------
def test_injected_unlocked_write_is_flagged():
    monitor = LocksetMonitor()
    with monitor.instrument(RacyCounter):
        _hammer(RacyCounter())
    reports = monitor.reports
    assert reports, "two unlocked writer threads must produce a race report"
    assert reports[0].attr == "count"
    assert reports[0].cls == "RacyCounter"
    assert len(reports[0].threads) >= 2
    assert any("in bump" in loc for loc in reports[0].locations)
    with pytest.raises(AssertionError, match="race on RacyCounter.count"):
        monitor.assert_clean()
    findings = monitor.findings()
    assert findings and findings[0].rule == "RPR701"


def test_guarded_class_is_clean():
    monitor = LocksetMonitor()
    with monitor.instrument(GuardedCounter):
        _hammer(GuardedCounter())
    monitor.assert_clean()


def test_single_threaded_unlocked_writes_not_flagged():
    # Exclusive phase: initialization-style access patterns stay silent.
    monitor = LocksetMonitor()
    with monitor.instrument(RacyCounter):
        counter = RacyCounter()
        for _ in range(50):
            counter.bump()
    assert monitor.reports == []


def test_instrumentation_restores_class():
    original_init = RacyCounter.__init__
    original_setattr = RacyCounter.__setattr__
    monitor = LocksetMonitor()
    with monitor.instrument(RacyCounter):
        assert RacyCounter.__init__ is not original_init
    assert RacyCounter.__init__ is original_init
    assert RacyCounter.__setattr__ is original_setattr


def test_self_check_is_healthy():
    assert list(self_check()) == []


# ----------------------------------------------------------------------
# Observed lock order
# ----------------------------------------------------------------------
class Pair:
    def __init__(self) -> None:
        self._first = threading.Lock()
        self._second = threading.Lock()

    def both(self) -> None:
        with self._first:
            with self._second:
                pass

    def both_reversed(self) -> None:
        with self._second:
            with self._first:
                pass


def test_monitor_order_edges_reset():
    monitor = LocksetMonitor()
    with monitor.instrument(Pair):
        Pair().both()
    assert monitor.order_edges()
    monitor.reset()
    assert monitor.order_edges() == []


def test_order_cycle_spans_instances_and_runs():
    """AB on one instance and BA on another, never concurrently: no run
    hangs, but the label-level order has a cycle."""
    monitor = LocksetMonitor()
    with monitor.instrument(Pair):
        Pair().both()
        assert monitor.order_cycle() is None
        assert [(e["from"], e["to"]) for e in monitor.order_edges()] == [
            ("Pair._first", "Pair._second")
        ]
        Pair().both_reversed()
    assert monitor.order_cycle() == ["Pair._first", "Pair._second", "Pair._first"]


# ----------------------------------------------------------------------
# (b) the real executor + connection pool pass clean under stress
# ----------------------------------------------------------------------
class PoolHammerJob:
    """Four-stage job whose every stage leases from one shared pool.

    Shaped like :class:`repro.core.phases.TableJob` (done /
    next_stage_kind / run_next_stage, and the infer-round protocol) so the
    *real* ``PipelinedExecutor`` runs its prep stages on TP1 threads and
    its infer stages on the dispatch thread.
    """

    STAGE_KINDS = ("prep", "infer", "prep", "infer")

    def __init__(self, pool: ConnectionPool) -> None:
        self.pool = pool
        self.completed = 0

    @property
    def done(self) -> bool:
        return self.completed >= len(self.STAGE_KINDS)

    def next_stage_kind(self) -> str | None:
        return None if self.done else self.STAGE_KINDS[self.completed]

    def run_next_stage(self) -> None:
        # Two connections for three threads: creation, reuse and blocking
        # waits on the pool's condition all happen on TP1 and on the
        # dispatch thread.
        for _ in range(5):
            with self.pool.lease(timeout=30.0):
                pass
        self.completed += 1

    def infer_requests(self) -> list:
        return []

    def apply_inference(self, results: list) -> None:
        self.run_next_stage()


def test_executor_and_cache_stress_is_race_free(tiny_corpus):
    """The pool's idle-connection cache under the real executor."""
    server = CloudDatabaseServer.from_tables(
        tiny_corpus.tables[:1], CostModel(time_scale=0.0)
    )
    monitor = LocksetMonitor()
    with monitor.instrument(ConnectionPool):
        pool = ConnectionPool(server, max_size=2, metrics=MetricsRegistry())
        jobs = [PoolHammerJob(pool) for _ in range(8)]
        PipelinedExecutor(prep_workers=2).run(
            jobs, metrics=MetricsRegistry()
        )
    assert all(job.done for job in jobs)
    # Multiple threads really did write the pool's counters...
    stats = pool.stats
    assert stats.acquired == 8 * 4 * 5 and stats.reused > 0
    # ...and every write was covered by the pool's lock.
    monitor.assert_clean()
