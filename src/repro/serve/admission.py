"""Admission control: per-tenant token buckets over a shared clock.

The controller answers exactly one question — *may this tenant start a
job of this size right now?* The service asks it last, once the job
queue has room and under the queue's condition, so tokens are spent only
by a job that is enqueued: a job shed for any reason costs its tenant
nothing. The job-queue bound is enforced separately by the service (it
owns the queue); this module owns only the quota dimension.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from ..errors import Overloaded
from ..obs.metrics import MetricsRegistry, NullMetricsRegistry
from .config import ServiceConfig

__all__ = ["TokenBucket", "AdmissionController"]


class TokenBucket:
    """A thread-safe token bucket: ``rate`` tokens/s up to ``burst``."""

    def __init__(
        self, rate: float, burst: float, clock: Callable[[], float] = time.monotonic
    ) -> None:
        self._rate = rate
        self._burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._updated = clock()
        self._lock = threading.Lock()

    def try_take(self, cost: float) -> float | None:
        """Spend ``cost`` tokens; ``None`` on success.

        On refusal, returns the seconds until the bucket will have
        refilled enough to cover ``cost`` (``inf`` when ``cost`` exceeds
        the bucket capacity and can never be covered).
        """
        with self._lock:
            now = self._clock()
            self._tokens = min(
                self._burst, self._tokens + (now - self._updated) * self._rate
            )
            self._updated = now
            if cost > self._burst:
                return float("inf")
            if cost <= self._tokens:
                self._tokens -= cost
                return None
            return (cost - self._tokens) / self._rate

    @property
    def tokens(self) -> float:
        """Current (refilled) token level — observability only."""
        with self._lock:
            now = self._clock()
            return min(self._burst, self._tokens + (now - self._updated) * self._rate)


class AdmissionController:
    """Lazily creates one :class:`TokenBucket` per tenant and gatekeeps.

    :meth:`admit` raises :class:`~repro.errors.Overloaded`
    (``reason="quota"``) when the tenant's bucket cannot cover the job's
    table count; ``retry_after`` carries the refill estimate (``None``
    when the job is larger than the burst and can never be admitted).
    """

    def __init__(
        self,
        config: ServiceConfig,
        metrics: MetricsRegistry | NullMetricsRegistry,
    ) -> None:
        self._config = config
        self._metrics = metrics
        self._clock = config.clock if config.clock is not None else time.monotonic
        self._buckets: dict[str, TokenBucket] = {}
        self._lock = threading.Lock()

    def _bucket(self, tenant: str) -> TokenBucket:
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                quota = self._config.quota_for(tenant)
                bucket = TokenBucket(
                    quota.rate_tables_per_s, quota.burst_tables, clock=self._clock
                )
                self._buckets[tenant] = bucket
            return bucket

    def admit(self, tenant: str, num_tables: int) -> None:
        retry_after = self._bucket(tenant).try_take(float(num_tables))
        if retry_after is None:
            return
        self._metrics.counter("serve.rejected", reason="quota", tenant=tenant).inc()
        if retry_after == float("inf"):
            quota = self._config.quota_for(tenant)
            raise Overloaded(
                f"tenant {tenant!r}: job of {num_tables} tables exceeds the "
                f"quota burst ({quota.burst_tables} tables) and can never be "
                "admitted",
                reason="quota",
                retry_after=None,
            )
        raise Overloaded(
            f"tenant {tenant!r}: quota exhausted for a {num_tables}-table job; "
            f"retry in {retry_after:.3f}s",
            reason="quota",
            retry_after=retry_after,
        )
