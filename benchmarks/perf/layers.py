"""Per-layer metrics of one traced run: shim spans plus counter deltas.

Layers are this repo's modules. Times come from the spans of
:mod:`shims`; counts come from before/after deltas of the counters the
program already emits (``docs/metrics.md``). Everything is reported per
unit of work — per pass, or per 100 jobs on ``serve_mix`` — so a longer
traced run reads the same.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Iterable

from shims import CONTAINER_SPANS, Span

__all__ = ["layer_metrics", "conservation", "attributed_share"]

_EAGER = ("encode_metadata", "encode_content", "meta_logits", "content_logits")


class _Counters:
    """Before/after deltas over ``MetricsRegistry.snapshot()`` dicts."""

    def __init__(self, before: dict[str, dict], after: dict[str, dict]) -> None:
        self._before, self._after = before, after

    def _series(self, name: str) -> Iterable[str]:
        return (k for k in self._after if k == name or k.startswith(name + "{"))

    def delta(self, name: str, stat: str = "value") -> float:
        """Delta of ``stat`` summed over every label set of ``name``."""
        return sum(
            self._after[key][stat] - self._before.get(key, {}).get(stat, 0.0)
            for key in self._series(name)
        )

    def mean_ms(self, name: str) -> float:
        """Mean of a seconds histogram over the run, in milliseconds."""
        count = self.delta(name, "count")
        return 1e3 * self.delta(name, "sum") / count if count else 0.0

    def gauge(self, name: str) -> float:
        return self._after.get(name, {}).get("value", 0.0)


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def attributed_share(spans: list[Span], wall_s: float) -> float:
    """Share of the traced wall during which some thread was inside a
    (non-container) shim span: the union of their intervals over the wall."""
    intervals = sorted(
        (span.start, span.end) for span in spans if span.name not in CONTAINER_SPANS
    )
    covered, reach = 0.0, float("-inf")
    for start, end in intervals:
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered / wall_s if wall_s else 0.0


def layer_metrics(
    spans: list[Span],
    before: dict[str, dict],
    after: dict[str, dict],
    *,
    units: float,
    wall_s: float,
    queue_depths: list[int],
    untraced_median_s: float,
    traced_median_s: float,
) -> dict[str, float]:
    """Every ``per_layer`` metric of BENCHMARK.json, by name.

    ``units`` is the number of passes traced (jobs / 100 on ``serve_mix``);
    counts and seconds are divided by it, ratios and means are not.
    """
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    attrs: dict[str, float] = defaultdict(float)
    for span in spans:
        calls[span.name] += 1
        self_s[span.name] += span.self_s
        incl_s[span.name] += span.end - span.start
        if span.attrs:
            for key in ("gflop", "padded_tokens", "real_tokens"):
                attrs[key] += span.attrs.get(key, 0.0)
    c = _Counters(before, after)
    per = lambda value: value / units  # noqa: E731 - local shorthand

    out: dict[str, float] = {}
    # repro.db
    out["db.connect.self_s"] = per(self_s["db.connect"])
    for op in ("fetch_metadata", "fetch_values"):
        out[f"db.{op}.calls"] = per(calls[f"db.{op}"])
        out[f"db.{op}.self_s"] = per(self_s[f"db.{op}"])
    out["db.charged_s"] = per(c.delta("db.charged_seconds"))
    out["db.round_trips"] = per(c.delta("db.round_trips"))
    out["db.cells_read"] = per(c.delta("db.cells_read"))
    out["db.pool.acquire_wait_s"] = per(self_s["db.pool.acquire"])
    # repro.text / repro.features
    for layer in ("text.encode", "features.encode", "features.collate"):
        out[f"{layer}.calls"] = per(calls[layer])
        out[f"{layer}.self_s"] = per(self_s[layer])
    out["features.encode_cache.hit_ratio"] = _ratio(
        c.delta("featurizer.encode_cache.hits"), c.delta("featurizer.encode_cache.misses")
    )
    # repro.core.phases
    for stage in ("p1_prep", "p1_infer", "p2_prep", "p2_infer"):
        out[f"core.phases.{stage}.self_s"] = per(self_s[f"core.phases.{stage}"])
        out[f"core.phases.{stage}.incl_s"] = per(incl_s[f"core.phases.{stage}"])
    # repro.core.pipeline
    out["core.pipeline.dispatches"] = per(c.delta("pipeline.dispatches"))
    for pool in ("prep", "infer"):
        out[f"core.pipeline.queue_wait_ms_mean.{pool}"] = c.mean_ms(
            f"pipeline.queue_wait_seconds{{pool={pool}}}"
        )
    out["core.pipeline.wakeups"] = per(c.delta("pipeline.wakeups"))
    out["core.pipeline.wait_timeouts"] = per(c.delta("pipeline.wait_timeouts"))
    stage_s = sum(v for k, v in incl_s.items() if k.startswith("core.phases."))
    out["core.pipeline.stage_concurrency"] = stage_s / wall_s if wall_s else 0.0
    # repro.core.latent_cache
    out["core.latent_cache.get.calls"] = per(calls["core.latent_cache.get"])
    out["core.latent_cache.hit_ratio"] = _ratio(
        c.delta("cache.hits"), c.delta("cache.misses")
    )
    out["core.latent_cache.evictions"] = per(c.delta("cache.evictions"))
    out["core.latent_cache.self_s"] = per(
        self_s["core.latent_cache.get"] + self_s["core.latent_cache.put"]
    )
    out["core.latent_cache.mb"] = c.gauge("cache.bytes") / 1e6
    # repro.core.detector
    out["core.detector.detect.self_s"] = per(self_s["core.detector.detect"])
    # repro.sched.batcher
    requests, forwards = c.delta("sched.requests"), c.delta("sched.forwards")
    out["sched.batcher.requests"] = per(requests)
    out["sched.batcher.forwards"] = per(forwards)
    out["sched.batcher.requests_per_forward"] = requests / forwards if forwards else 0.0
    out["sched.batcher.cols_per_forward"] = (
        c.delta("sched.batch_cols", "sum") / forwards if forwards else 0.0
    )
    out["sched.batcher.queue_wait_ms_mean"] = c.mean_ms("sched.queue_wait_seconds")
    for reason in ("full", "timeout", "idle"):
        out[f"sched.batcher.flush.{reason}"] = per(
            c.delta(f"sched.flush_reason{{reason={reason}}}")
        )
    out["sched.batcher.run.wait_s"] = per(self_s["sched.batcher.run"])
    # repro.sched.forward
    for phase in ("run_phase1", "run_phase2"):
        out[f"sched.forward.{phase}.calls"] = per(calls[f"sched.forward.{phase}"])
        out[f"sched.forward.{phase}.self_s"] = per(self_s[f"sched.forward.{phase}"])
    out["sched.forward.pad_ratio"] = (
        attrs["padded_tokens"] / attrs["real_tokens"] if attrs["real_tokens"] else 0.0
    )
    # repro.nn.compile / repro.nn
    for phase in ("1", "2"):
        out[f"nn.compile.replay.calls.p{phase}"] = per(
            c.delta(f"nn.compile.replays{{phase={phase}}}")
        )
        out[f"nn.compile.replay.self_s.p{phase}"] = per(
            self_s[f"nn.compile.replay.p{phase}"]
        )
    out["nn.compile.builds"] = per(c.delta("nn.compile.builds"))
    out["nn.compile.fallbacks"] = per(c.delta("nn.compile.fallbacks"))
    out["nn.compile.arena_mb"] = c.gauge("nn.compile.arena_bytes") / 1e6
    # One eager forward ends in exactly one of the two logits functions.
    out["nn.eager.forward.calls"] = per(
        calls["nn.eager.meta_logits"] + calls["nn.eager.content_logits"]
    )
    eager_s = sum(self_s[f"nn.eager.{method}"] for method in _EAGER)
    out["nn.eager.forward.self_s"] = per(eager_s)
    forward_s = (
        self_s["nn.compile.replay.p1"] + self_s["nn.compile.replay.p2"] + eager_s
    )
    out["nn.forward.gflop"] = per(attrs["gflop"])
    out["nn.forward.gflop_per_s"] = attrs["gflop"] / forward_s if forward_s else 0.0
    out["nn.memo.hit_ratio"] = _ratio(c.delta("nn.memo.hits"), c.delta("nn.memo.misses"))
    # repro.serve (zero on the direct workloads)
    out["serve.submit.calls"] = per(calls["serve.submit"])
    out["serve.submit.self_s"] = per(self_s["serve.submit"])
    out["serve.admitted"] = per(c.delta("serve.admitted"))
    out["serve.rejected"] = per(c.delta("serve.rejected"))
    out["serve.queue_depth_mean"] = (
        sum(queue_depths) / len(queue_depths) if queue_depths else 0.0
    )
    # repro.obs: how far to trust the numbers above
    out["obs.spans"] = per(len(spans))
    out["obs.trace_overhead_pct"] = (
        100.0 * (traced_median_s - untraced_median_s) / untraced_median_s
    )
    out["obs.attributed_pct"] = 100.0 * attributed_share(spans, wall_s)
    return out


def conservation(
    spans: list[Span], before: dict[str, dict], after: dict[str, dict], jobs_finished: int
) -> dict[str, Any]:
    """Pairs of raw totals that must be equal (checked by the worker)."""
    c = _Counters(before, after)
    forward_requests = sum(
        span.attrs["requests"]
        for span in spans
        if span.name.startswith("sched.forward.run_phase") and span.attrs
    )
    cache_gets = sum(1 for span in spans if span.name == "core.latent_cache.get")
    pairs = {
        "sched.requests == requests over forwards": (
            c.delta("sched.requests"), forward_requests,
        ),
        "sched.requests == sum(sched.batch_requests)": (
            c.delta("sched.requests"), c.delta("sched.batch_requests", "sum"),
        ),
        "cache.hits + cache.misses == latent_cache.get calls": (
            c.delta("cache.hits") + c.delta("cache.misses"), cache_gets,
        ),
    }
    if jobs_finished:
        pairs["serve.admitted == jobs finished"] = (c.delta("serve.admitted"), jobs_finished)
    return {law: [float(a), float(b)] for law, (a, b) in pairs.items()}
