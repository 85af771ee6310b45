"""Fault injection and resilience for the simulated cloud substrate.

The paper's premise is detection against a *real* cloud database — an RDS
MySQL instance reached over a VPC — where queries time out, connections
drop and scans crawl. This package makes those conditions first-class and
reproducible:

* :class:`FaultPlan` / :class:`FaultRule` — a seeded, declarative
  description of what goes wrong (extra latency, transient errors,
  connection drops, scan throttling), per operation class.
* :class:`FaultInjector` / :class:`FaultyConnection` — the live layer that
  wraps :class:`~repro.db.connection.Connection` and fires the plan
  deterministically, without changing what a round trip costs.
* :class:`RetryPolicy` — capped exponential backoff with jitter and
  per-call deadlines, applied by the detector's data-preparation stages
  and the connection pool.
* The exception hierarchy (:class:`TransientDBError`,
  :class:`ConnectionDroppedError`, :class:`RetryGiveUpError`,
  :class:`RetryDeadlineError`) that separates retryable cloud weather
  from real bugs — defined in :mod:`repro.errors` and re-exported here.
"""

from ..errors import (
    ConnectionDroppedError,
    FaultError,
    RetryDeadlineError,
    RetryGiveUpError,
    TransientDBError,
)
from .retry import RetryPolicy
from .plan import KINDS, OPERATIONS, FaultInjector, FaultPlan, FaultRule, FaultyConnection

__all__ = [
    "FaultError",
    "TransientDBError",
    "ConnectionDroppedError",
    "RetryGiveUpError",
    "RetryDeadlineError",
    "RetryPolicy",
    "FaultRule",
    "FaultPlan",
    "FaultInjector",
    "FaultyConnection",
    "OPERATIONS",
    "KINDS",
]
