"""The consolidated ``repro`` exception hierarchy.

Everything this framework raises on purpose derives from one base class,
:class:`ReproError`, so callers can catch "anything repro-specific" with a
single except clause while still distinguishing the families:

* **Fault-class errors** (:class:`FaultError` and subclasses) — transient
  cloud-database weather (query timeouts, dropped connections). Retryable
  by :class:`~repro.faults.RetryPolicy`.
* **Give-up errors** (:class:`RetryGiveUpError`,
  :class:`RetryDeadlineError`) — a retry budget or per-call deadline ran
  out. Carry ``last_error`` and ``attempts``.
* **Pool errors** (:class:`PoolExhaustedError`) — a bounded
  :class:`~repro.db.pool.ConnectionPool` had nothing to hand out.
* **Service errors** (:class:`ServiceError` and subclasses) — the
  :class:`~repro.serve.DetectionService` admission/lifecycle surface:
  :class:`Overloaded` (quota or queue shed the job), :class:`Cancelled`
  (the job was cancelled), :class:`DeadlineExceeded` (a job or wait
  deadline passed).

The ``repro.faults`` and ``repro.db`` packages re-export the names their
callers catch. This module deliberately imports nothing from the rest of
``repro`` so every subpackage can depend on it without cycles.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "FaultError",
    "TransientDBError",
    "ConnectionDroppedError",
    "RetryGiveUpError",
    "RetryDeadlineError",
    "PoolExhaustedError",
    "ServiceError",
    "Overloaded",
    "Cancelled",
    "DeadlineExceeded",
]


class ReproError(Exception):
    """Base class of every intentional ``repro`` exception."""


# ----------------------------------------------------------------------
# Fault-class (retryable) errors — see repro.faults
# ----------------------------------------------------------------------
class FaultError(ReproError, RuntimeError):
    """Base class for injected (or real) transient cloud-database faults."""


class TransientDBError(FaultError):
    """A query failed transiently (timeout, deadlock, failover blip)."""


class ConnectionDroppedError(FaultError):
    """The connection died mid-operation; a reconnect is required."""


# ----------------------------------------------------------------------
# Retry give-ups — see repro.faults.retry
# ----------------------------------------------------------------------
class RetryGiveUpError(ReproError, RuntimeError):
    """All retry attempts were consumed without success.

    ``last_error`` holds the final underlying failure and ``attempts`` the
    total number of attempts made (including the first).
    """

    def __init__(
        self,
        message: str,
        last_error: BaseException | None = None,
        attempts: int = 0,
    ) -> None:
        super().__init__(message)
        self.last_error = last_error
        self.attempts = attempts


class RetryDeadlineError(RetryGiveUpError):
    """The per-call retry deadline left no room for another attempt."""


# ----------------------------------------------------------------------
# Connection pool — see repro.db.pool
# ----------------------------------------------------------------------
class PoolExhaustedError(ReproError, RuntimeError):
    """Raised when acquiring from a full pool with no idle connections."""


# ----------------------------------------------------------------------
# Detection service — see repro.serve
# ----------------------------------------------------------------------
class ServiceError(ReproError):
    """Base class of the :class:`~repro.serve.DetectionService` surface."""


class Overloaded(ServiceError):
    """Admission control shed the job (tenant quota or full job queue).

    ``reason`` is ``"quota"`` or ``"queue"``; ``retry_after`` suggests how
    long (seconds) until the tenant's token bucket can cover the job
    again (``None`` when the queue, not the quota, rejected it).
    """

    def __init__(
        self, message: str, reason: str = "queue", retry_after: float | None = None
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.retry_after = retry_after


class Cancelled(ServiceError):
    """The job was cancelled before it produced a complete result."""


class DeadlineExceeded(ServiceError):
    """A service-level deadline passed (job deadline or a blocking wait)."""
