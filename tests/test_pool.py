"""Tests for the connection pool."""

from __future__ import annotations

import threading
import time

import pytest

from repro.datagen import TableGenConfig, generate_table
from repro.db import CloudDatabaseServer, ConnectionPool, CostLedger, CostModel, PoolExhaustedError
from repro.db.cost import billed_to
from repro.errors import Cancelled
from repro.faults import RetryPolicy, TransientDBError
from repro.obs import MetricsRegistry

FAST = CostModel(time_scale=0.0)


@pytest.fixture()
def server(registry, rng):
    tables = [
        generate_table(registry, TableGenConfig(min_rows=5, max_rows=10), rng, i)
        for i in range(3)
    ]
    return CloudDatabaseServer.from_tables(tables, FAST)


class TestAcquireRelease:
    def test_reuse_avoids_new_connections(self, server):
        pool = ConnectionPool(server, max_size=2)
        with billed_to(CostLedger()) as ledger:
            conn = pool.acquire()
            pool.release(conn)
            again = pool.acquire()
        assert again is conn
        assert ledger.connections_opened == 1
        assert pool.stats.reused == 1

    def test_exhaustion_raises(self, server):
        pool = ConnectionPool(server, max_size=1)
        pool.acquire()
        with pytest.raises(PoolExhaustedError):
            pool.acquire()

    def test_blocking_acquire_waits_for_release(self, server):
        pool = ConnectionPool(server, max_size=1)
        held = pool.acquire()

        def release_soon():
            pool.release(held)

        timer = threading.Timer(0.02, release_soon)
        timer.start()
        conn = pool.acquire(block=True, timeout=1.0)
        assert conn is held
        timer.join()

    def test_closed_connection_not_reused(self, server):
        pool = ConnectionPool(server, max_size=1)
        with billed_to(CostLedger()) as ledger:
            conn = pool.acquire()
            conn.close()
            pool.release(conn)
            fresh = pool.acquire()
        assert fresh is not conn
        assert ledger.connections_opened == 2

    def test_lease_context_manager(self, server):
        pool = ConnectionPool(server, max_size=1)
        with pool.lease() as conn:
            assert conn.list_tables()
        # released: acquirable again without exhaustion
        with pool.lease():
            pass
        assert pool.stats.reused == 1

    def test_close_drops_idle(self, server):
        pool = ConnectionPool(server, max_size=2)
        conn = pool.acquire()
        pool.release(conn)
        pool.close()
        fresh = pool.acquire()
        assert fresh is not conn

    def test_invalid_size(self, server):
        with pytest.raises(ValueError):
            ConnectionPool(server, max_size=0)


class TestStats:
    def test_reuse_ratio(self, server):
        pool = ConnectionPool(server, max_size=1)
        for _ in range(4):
            conn = pool.acquire()
            pool.release(conn)
        assert pool.stats.reuse_ratio == pytest.approx(0.75)

    def test_empty_ratio(self, server):
        assert ConnectionPool(server).stats.reuse_ratio == 0.0

    def test_thread_safety(self, server):
        pool = ConnectionPool(server, max_size=4)
        errors = []

        def worker():
            try:
                for _ in range(50):
                    with pool.lease() as conn:
                        conn.list_tables()
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert pool.stats.acquired == 200


class TestDeadlinesAndMetrics:
    def test_exhausted_message_names_capacity_and_timeout(self, server):
        pool = ConnectionPool(server, max_size=1)
        pool.acquire()
        with pytest.raises(PoolExhaustedError, match=r"capacity \(1\)"):
            pool.acquire()
        with pytest.raises(PoolExhaustedError, match=r"after waiting 0\.010s"):
            pool.acquire(block=True, timeout=0.01)

    def test_exhaustion_counted_in_metrics(self, server):
        metrics = MetricsRegistry()
        pool = ConnectionPool(server, max_size=1, metrics=metrics)
        pool.acquire()
        for _ in range(2):
            with pytest.raises(PoolExhaustedError):
                pool.acquire()
        assert metrics.counter("db.pool.exhausted").value == 2

    def test_spurious_wakeups_cannot_extend_the_deadline(self, server):
        """Repeated notifies without a release must not restart the wait."""
        pool = ConnectionPool(server, max_size=1)
        pool.acquire()
        timeout = 0.2
        outcome = {}

        def blocked_acquire():
            started = time.monotonic()
            try:
                pool.acquire(block=True, timeout=timeout)
            except PoolExhaustedError:
                outcome["elapsed"] = time.monotonic() - started

        waiter = threading.Thread(target=blocked_acquire)
        waiter.start()
        # Hammer the condition with spurious wakeups while nothing is idle.
        deadline = time.monotonic() + 1.0
        while waiter.is_alive() and time.monotonic() < deadline:
            with pool._lock:
                pool._lock.notify_all()
            time.sleep(0.01)
        waiter.join(timeout=2.0)
        assert not waiter.is_alive()
        # The wait honoured roughly one timeout, not one per wakeup.
        assert timeout <= outcome["elapsed"] < timeout + 0.5

    def test_abort_probe_cancels_before_waiting(self, server):
        pool = ConnectionPool(server, max_size=1)
        pool.acquire()
        with pytest.raises(Cancelled):
            pool.acquire(block=True, timeout=5.0, abort=lambda: True)

    def test_acquire_under_cancellation_wakes_promptly(self, server):
        """Regression: a blocked acquire whose abort probe flips must be
        woken by ``wake_waiters()`` immediately — not when the timeout
        expires or the next release happens to notify the condition."""
        pool = ConnectionPool(server, max_size=1)
        pool.acquire()  # exhaust the pool; nothing will be released
        cancelled = threading.Event()
        outcome: dict[str, object] = {}

        def blocked_acquire():
            started = time.monotonic()
            try:
                pool.acquire(block=True, timeout=30.0, abort=cancelled.is_set)
            except Cancelled as error:
                outcome["error"] = error
                outcome["elapsed"] = time.monotonic() - started

        waiter = threading.Thread(target=blocked_acquire)
        waiter.start()
        time.sleep(0.05)  # let the waiter reach condition.wait
        cancelled.set()
        pool.wake_waiters()
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert isinstance(outcome["error"], Cancelled)
        # Woken by the canceller, far inside the 30 s acquire timeout.
        assert outcome["elapsed"] < 5.0

    def test_cancelled_acquire_takes_nothing_even_when_available(self, server):
        """Cancellation wins over availability: a flipped probe refuses
        the acquire before the fast path can hand a connection out, so a
        cancelled job never takes (and then leaks) pool capacity."""
        pool = ConnectionPool(server, max_size=1)
        with pytest.raises(Cancelled):
            pool.acquire(block=True, abort=lambda: True)
        # The refusal consumed nothing: the slot is still available.
        assert pool.acquire(block=False).list_tables()

    def test_connect_retry_policy_counts_retries(self, server):
        metrics = MetricsRegistry()
        failures = [2]  # fail the first two creation attempts

        def flaky_connect():
            if failures[0] > 0:
                failures[0] -= 1
                raise TransientDBError("injected")
            return server.connect()

        pool = ConnectionPool(
            server,
            max_size=1,
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0),
            connect=flaky_connect,
            metrics=metrics,
        )
        connection = pool.acquire()
        assert connection.list_tables()
        assert metrics.counter("db.pool.retries").value == 2

    def test_failed_creation_rolls_back_capacity(self, server):
        def always_fails():
            raise TransientDBError("down")

        pool = ConnectionPool(server, max_size=1, connect=always_fails)
        with pytest.raises(TransientDBError):
            pool.acquire()
        # The failed slot was returned: capacity is available again.
        pool._connect_factory = None
        assert pool.acquire().list_tables()
