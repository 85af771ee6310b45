"""Lockset race detector: flags a deliberately injected unlocked write,
stays clean on guarded classes, and passes the real PipelinedExecutor +
LatentCache combination under a two-pool stress run."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.analysis import LocksetMonitor
from repro.analysis.races import self_check
from repro.core.latent_cache import CachedEncoding, LatentCache
from repro.core.pipeline import PipelinedExecutor
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
# (b) the real executor + cache pass clean under stress
# ----------------------------------------------------------------------
def _tiny_encoding() -> CachedEncoding:
    return CachedEncoding(
        layer_outputs=[np.zeros((1, 4, 8), dtype=np.float32)],
        meta_mask=np.ones((1, 4), dtype=bool),
        col_positions=np.zeros((1, 2), dtype=np.int64),
        numeric=np.zeros((1, 2, 3), dtype=np.float32),
        meta_logits=np.zeros((1, 2, 5), dtype=np.float32),
    )


class CacheHammerJob:
    """Four-stage job whose every stage hammers one shared LatentCache.

    Shaped like :class:`repro.core.phases.TableJob` (done /
    next_stage_kind / run_next_stage) so the *real* ``PipelinedExecutor``
    schedules it across both thread pools.
    """

    STAGE_KINDS = ("prep", "infer", "prep", "infer")

    def __init__(self, cache: LatentCache, index: int) -> None:
        self.cache = cache
        self.index = index
        self.completed = 0

    @property
    def done(self) -> bool:
        return self.completed >= len(self.STAGE_KINDS)

    def next_stage_kind(self) -> str | None:
        return None if self.done else self.STAGE_KINDS[self.completed]

    def run_next_stage(self) -> None:
        # Few distinct keys + tiny capacity: contended puts, hits, misses
        # and evictions all happen concurrently on both pools.
        key = f"table_{self.index % 3}"
        for _ in range(5):
            self.cache.put(key, _tiny_encoding())
            self.cache.get(key)
            self.cache.get("never_inserted")
        if self.completed == len(self.STAGE_KINDS) - 1:
            self.cache.invalidate(key)
        self.completed += 1


def test_executor_and_cache_stress_is_race_free():
    monitor = LocksetMonitor()
    with monitor.instrument(LatentCache):
        cache = LatentCache(capacity=2, metrics=MetricsRegistry())
        jobs = [CacheHammerJob(cache, index) for index in range(8)]
        PipelinedExecutor(prep_workers=2, infer_workers=2).run(
            jobs, metrics=MetricsRegistry()
        )
    assert all(job.done for job in jobs)
    # Multiple threads really did write the cache's counters...
    assert cache.hits > 0 and cache.misses > 0 and cache.evictions > 0
    # ...and every write was covered by the cache's lock.
    monitor.assert_clean()
