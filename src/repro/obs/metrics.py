"""A small, thread-safe, zero-dependency metrics substrate.

Three instrument kinds cover everything the pipeline needs:

* :class:`Counter` — monotonically increasing totals (cache hits, DB
  round trips, spurious wakeups);
* :class:`Gauge` — instantaneous values with peak tracking (in-flight
  stages per pool, cached bytes);
* :class:`Histogram` — bucketed distributions (queue-wait, stage
  latencies).

Instruments live in a :class:`MetricsRegistry`, keyed by name plus a
frozen label set, Prometheus-style (``pipeline.in_flight{pool=prep}``).
``registry.counter(name, **labels)`` is get-or-create, so callers never
pre-register anything. A process-global registry (:func:`global_registry`)
is the default sink; tests that want isolation construct their own, and
:data:`NULL_METRICS` is a do-nothing registry for measuring the untraced
baseline.
"""

from __future__ import annotations

import threading
from typing import Any

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "global_registry",
]

DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount

    def reset(self) -> None:
        with self._lock:
            self.value = 0.0

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            return {"type": "counter", "value": self.value}


class Gauge:
    """Instantaneous value; remembers the peak it ever reached."""

    __slots__ = ("_lock", "value", "peak")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0
        self.peak = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value
            if value > self.peak:
                self.peak = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount
            if self.value > self.peak:
                self.peak = self.value

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def reset(self) -> None:
        with self._lock:
            self.value = 0.0
            self.peak = 0.0

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            return {"type": "gauge", "value": self.value, "peak": self.peak}


class Histogram:
    """Bucketed distribution with count/sum/min/max."""

    __slots__ = ("_lock", "buckets", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self._lock = threading.Lock()
        self.buckets = tuple(sorted(buckets))
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.bucket_counts = [0] * (len(self.buckets) + 1)  # +1 overflow
            self.count = 0
            self.total = 0.0
            self.min = float("inf")
            self.max = float("-inf")

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            for i, upper in enumerate(self.buckets):
                if value <= upper:
                    self.bucket_counts[i] += 1
                    return
            self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        with self._lock:
            return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "type": "histogram",
                "count": self.count,
                "sum": self.total,
                "min": self.min if self.count else 0.0,
                "max": self.max if self.count else 0.0,
                "mean": self.total / self.count if self.count else 0.0,
                "buckets": {
                    **{str(upper): n for upper, n in zip(self.buckets, self.bucket_counts)},
                    "+Inf": self.bucket_counts[-1],
                },
            }


def _series_key(name: str, labels: dict[str, Any]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Get-or-create home of labeled instrument series (thread-safe).

    A name has one set of label keys: looking it up with another (say,
    without the labels it was emitted with) raises :class:`ValueError`
    instead of making a series nothing else writes to.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._series: dict[str, Counter | Gauge | Histogram] = {}
        self._label_keys: dict[str, frozenset[str]] = {}  # name -> its label keys

    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name: str, labels: dict[str, Any], **kwargs):
        key = _series_key(name, labels)
        with self._lock:
            instrument = self._series.get(key)
            if instrument is None:
                keys = self._label_keys.setdefault(name, frozenset(labels))
                if keys != frozenset(labels):
                    raise ValueError(
                        f"metric {name!r} has label keys {sorted(keys)}, "
                        f"not {sorted(labels)}"
                    )
                instrument = cls(**kwargs)
                self._series[key] = instrument
            elif not isinstance(instrument, cls):
                raise TypeError(
                    f"metric {key!r} already registered as {type(instrument).__name__}"
                )
            return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self, name: str, buckets: tuple[float, ...] | None = None, **labels: Any
    ) -> Histogram:
        kwargs = {"buckets": buckets} if buckets is not None else {}
        return self._get_or_create(Histogram, name, labels, **kwargs)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, dict[str, Any]]:
        """``{series_key: plain-dict state}`` for reports and tests."""
        with self._lock:
            series = dict(self._series)
        return {key: instrument.snapshot() for key, instrument in sorted(series.items())}

    def reset(self) -> None:
        """Zero every instrument in place.

        Series stay registered: the batcher, caches and plan cache capture
        their handles at construction, so dropping the map would orphan
        them and every later snapshot would read 0.
        """
        with self._lock:
            series = list(self._series.values())
        for instrument in series:
            instrument.reset()

    def __len__(self) -> int:
        with self._lock:
            return len(self._series)


class _NullInstrument:
    """Stands in for any instrument kind; records nothing."""

    __slots__ = ()
    value = 0.0
    peak = 0.0
    count = 0
    total = 0.0
    mean = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def snapshot(self) -> dict[str, Any]:
        return {"type": "null"}


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry:
    """Do-nothing registry (the untraced baseline for overhead tests)."""

    def counter(self, name: str, **labels: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, buckets=None, **labels: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def snapshot(self) -> dict[str, dict[str, Any]]:
        return {}

    def reset(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


NULL_METRICS = NullMetricsRegistry()

_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide default registry instrumented code reports to."""
    return _GLOBAL
