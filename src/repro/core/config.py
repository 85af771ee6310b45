"""Configuration objects for the public detector API.

The :class:`~repro.core.detector.TasteDetector` surface is three small
frozen dataclasses:

* :class:`DetectorConfig` — *what* the detector does: caching, pipelining,
  prep slots, scan method. Validated at construction time (e.g. a negative
  ``sample_seed`` is rejected here, not deep inside the engine's
  ``default_rng`` call).
* :class:`RuntimeConfig` — *how* it runs: tracer, metrics sink, the
  :class:`~repro.faults.RetryPolicy` applied to data-preparation stages,
  and whether fault give-ups degrade gracefully or raise.
* :class:`DetectOptions` — per-call options for ``detect()``: an optional
  :class:`~repro.faults.FaultPlan` and a trace artifact path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..faults.retry import RetryPolicy
from ..nn.compile import CompileConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.plan import FaultPlan
    from ..obs.metrics import MetricsRegistry, NullMetricsRegistry
    from ..obs.trace import Tracer

__all__ = [
    "BatchingConfig",
    "CompileConfig",
    "DetectorConfig",
    "RuntimeConfig",
    "DetectOptions",
]

_SCAN_METHODS = ("first", "sample")


@dataclass(frozen=True)
class BatchingConfig:
    """Policy knobs of the cross-table inference batcher (``repro.sched``).

    ``enabled`` lets one forward carry many requests; off, each request
    is a forward of its own. Either way every table is computed at its
    own real widths, so the setting never changes an output bit.
    ``max_batch_cols`` caps how many columns one forward may carry, and
    nothing else: a pipelined round takes every ready table and the
    batcher cuts each phase's requests at this cap. The default of 32
    bounds the buffers one forward allocates, while a Phase-1 forward of
    4 requests (~25 columns) already costs 0.47 ms per request against
    0.42 ms at 8 (DESIGN §5d).
    """

    enabled: bool = True
    max_batch_cols: int = 32

    def __post_init__(self) -> None:
        if self.max_batch_cols < 1:
            raise ValueError("max_batch_cols must be at least 1")

    def replace(self, **changes: Any) -> "BatchingConfig":
        """A modified copy (re-validated)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class DetectorConfig:
    """Behavioural knobs of the two-phase detector.

    ``scan_method`` is ``"first"`` (first-``m``-rows scan) or ``"sample"``
    (``ORDER BY RAND(seed)``), paper Sec. 6.1.2; ``sample_seed`` must be
    non-negative (MySQL's ``RAND`` and numpy's ``default_rng`` both reject
    negative seeds — we reject them here, at config time).
    """

    caching: bool = True
    pipelined: bool = True
    prep_workers: int = 2
    scan_method: str = "first"
    sample_seed: int = 0
    batching: BatchingConfig = field(default_factory=BatchingConfig)
    compile: CompileConfig = field(default_factory=CompileConfig)

    def __post_init__(self) -> None:
        if self.scan_method not in _SCAN_METHODS:
            raise ValueError(
                f"scan_method must be 'first' or 'sample', got {self.scan_method!r}"
            )
        if self.sample_seed < 0:
            raise ValueError(
                f"sample_seed must be non-negative, got {self.sample_seed} "
                "(ORDER BY RAND(seed) and numpy's default_rng reject negative seeds)"
            )
        if self.prep_workers < 1:
            raise ValueError("prep_workers must be at least 1")

    def replace(self, **changes: Any) -> "DetectorConfig":
        """A modified copy (re-validated)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class RuntimeConfig:
    """Execution environment of a detector: observability and resilience.

    ``tracer``/``metrics`` default to a fresh enabled tracer and the
    process-global registry (resolved by the detector, so the dataclass
    stays frozen and shareable). ``retry_policy`` is applied to every
    data-preparation stage and to connection setup; ``degrade=True`` turns
    exhausted retries into degraded/failed table markers instead of a
    raised exception.
    """

    tracer: "Tracer | None" = None
    metrics: "MetricsRegistry | NullMetricsRegistry | None" = None
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    degrade: bool = True

    def replace(self, **changes: Any) -> "RuntimeConfig":
        return replace(self, **changes)


@dataclass(frozen=True)
class DetectOptions:
    """Per-call options for :meth:`TasteDetector.detect`.

    ``fault_plan`` injects deterministic faults into the run's database
    traffic (see :mod:`repro.faults`); ``trace_out`` writes the run's
    spans as a JSONL artifact.
    """

    fault_plan: "FaultPlan | None" = None
    trace_out: str | Path | None = None

    def replace(self, **changes: Any) -> "DetectOptions":
        return replace(self, **changes)
