"""Capped-exponential-backoff retry with per-call deadlines.

:class:`RetryPolicy` is a frozen value object: it carries the knobs (max
attempts, backoff shape, jitter, deadline, which exception classes count
as retryable) and :meth:`RetryPolicy.run` executes a callable under them.
Jitter is drawn from a policy-seeded :class:`random.Random` created per
``run`` call, so a given policy produces the same backoff schedule every
time — retries stay deterministic end to end, matching the rest of the
simulation.

The policy is deliberately synchronous: the detector applies it around
data-preparation stages (which block on simulated network I/O anyway),
and the connection pool applies it around connection creation. Backoff
sleeps are real waits like any database latency (:func:`repro.db.cost.wait`),
so a pipelined prep stage that backs off holds no prep slot meanwhile.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from typing import Any, Callable

from ..db.cost import wait
from ..errors import (
    ConnectionDroppedError,
    RetryDeadlineError,
    RetryGiveUpError,
    TransientDBError,
)

__all__ = ["RetryPolicy"]

RetryCallback = Callable[[BaseException, int, float], None]
GiveUpCallback = Callable[[BaseException, int], None]


@dataclass(frozen=True)
class RetryPolicy:
    """How to retry transient cloud-database failures.

    Parameters
    ----------
    max_attempts:
        Total attempts including the first; ``1`` disables retrying.
    base_delay:
        Backoff before the first retry (seconds); doubles (``multiplier``)
        per retry up to ``max_delay``.
    max_delay:
        Cap on a single backoff sleep.
    jitter:
        Fractional jitter: each backoff is multiplied by a value drawn
        uniformly from ``[1, 1 + jitter]``. Seeded per policy (``seed``),
        so schedules are reproducible.
    deadline:
        Optional per-call budget (seconds). When the elapsed time plus the
        next backoff would exceed it, the call gives up with
        :class:`RetryDeadlineError` instead of sleeping.
    retryable:
        Exception classes worth retrying. Everything else propagates
        unchanged on the first occurrence.
    """

    max_attempts: int = 3
    base_delay: float = 0.005
    max_delay: float = 0.1
    multiplier: float = 2.0
    jitter: float = 0.0
    deadline: float | None = None
    retryable: tuple[type[BaseException], ...] = (
        TransientDBError,
        ConnectionDroppedError,
    )
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive when set")

    # ------------------------------------------------------------------
    def with_deadline(self, seconds: float | None) -> "RetryPolicy":
        """A copy of this policy with a different per-call deadline."""
        return replace(self, deadline=seconds)

    def backoff_delay(self, retry_index: int, rng: random.Random | None = None) -> float:
        """Backoff before retry number ``retry_index`` (0-based), jittered."""
        delay = min(self.base_delay * self.multiplier**retry_index, self.max_delay)
        if self.jitter and rng is not None:
            delay *= 1.0 + rng.random() * self.jitter
        return delay

    # ------------------------------------------------------------------
    def run(
        self,
        fn: Callable[[], Any],
        *,
        label: str = "operation",
        on_retry: RetryCallback | None = None,
        on_giveup: GiveUpCallback | None = None,
        sleep: Callable[[float], None] = wait,
        clock: Callable[[], float] = time.monotonic,
    ) -> Any:
        """Call ``fn`` until it succeeds, retries run out, or the deadline hits.

        ``on_retry(error, attempt, delay)`` fires before each backoff sleep;
        ``on_giveup(error, attempts)`` fires once when giving up. Raises
        :class:`RetryGiveUpError` (or :class:`RetryDeadlineError`) with
        the last underlying error chained via ``__cause__``.
        """
        rng = random.Random(self.seed)
        started = clock()
        attempt = 0
        while True:
            try:
                return fn()
            except self.retryable as error:
                attempt += 1
                if attempt >= self.max_attempts:
                    if on_giveup is not None:
                        on_giveup(error, attempt)
                    raise RetryGiveUpError(
                        f"{label} failed after {attempt} attempts: {error}",
                        last_error=error,
                        attempts=attempt,
                    ) from error
                delay = self.backoff_delay(attempt - 1, rng)
                if (
                    self.deadline is not None
                    and clock() - started + delay > self.deadline
                ):
                    if on_giveup is not None:
                        on_giveup(error, attempt)
                    raise RetryDeadlineError(
                        f"{label} exceeded its {self.deadline:.3f}s deadline "
                        f"after {attempt} attempts: {error}",
                        last_error=error,
                        attempts=attempt,
                    ) from error
                if on_retry is not None:
                    on_retry(error, attempt, delay)
                if delay > 0:
                    sleep(delay)
