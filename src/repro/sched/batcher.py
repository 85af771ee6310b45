"""The inference batcher: the one route from chunk requests to the model.

Every execution mode sends its inference through
:meth:`InferenceBatcher.run`. The pipelined executor's dispatch loop is
the compute thread (Algorithm 1's TP2): each round it takes the tables
whose next stage is inference and hands all their chunk requests to the
batcher at once. A sequential run hands it one table's infer stage at a
time. Either way the batcher splits the requests by phase and runs each
phase's requests in order, on the calling thread, as forwards of at most
``max_batch_cols`` columns — or of one request each when
``batching.enabled`` is false — returning per-request results in order.
Any requests of one phase may share a forward: each table is computed at
its own real widths (:mod:`repro.sched.forward`), so a forward's other
tables never change its bits. "Unbatched" and "sequential" are therefore settings of
this one route, not separate code. Nothing waits for a batch to fill: a
round takes what is ready, and while it runs the next round's tables
finish their preparation.

There is no thread here because inference is numpy under one GIL: a
forward on a thread of its own would only compete with the dispatch loop
and the prep workers for that lock, slowing forwards down instead of
overlapping them. The batcher holds no lock either; several loops (a
direct ``detect()`` beside a service) may call :meth:`run` at once.

With ``compile.enabled`` each :meth:`run` looks up the model's two
compiled plans (:func:`repro.nn.compile.plan_cache`) once and hands them
to every forward; otherwise the forwards run eager. A detector with
compilation off therefore never touches the plans another detector on
the same model uses. Replays take no lock, so loops that share the plans
all replay at once. The plans are shared, but their counts are not: each
forward hands back its replay and fallback events, and the batcher counts
them into its own registry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..nn import compile as nn_compile
from ..obs.metrics import MetricsRegistry, NullMetricsRegistry, global_registry
from . import forward
from .forward import Phase1Request, Phase2Request, request_cost

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.adtd import ADTDModel
    from ..core.config import DetectorConfig

__all__ = ["InferenceBatcher"]

_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


class InferenceBatcher:
    """Runs many tables' infer-stage requests as shared forwards."""

    def __init__(
        self,
        model: "ADTDModel",
        config: "DetectorConfig",
        metrics: MetricsRegistry | NullMetricsRegistry | None = None,
    ) -> None:
        metrics = metrics if metrics is not None else global_registry()
        self.model = model
        self.config = config
        # Metric handles, hoisted once (never resolved on the hot path).
        self._batch_cols_hist = metrics.histogram(
            "sched.batch_cols", buckets=_BATCH_SIZE_BUCKETS
        )
        self._batch_requests_hist = metrics.histogram(
            "sched.batch_requests", buckets=_BATCH_SIZE_BUCKETS
        )
        self._forward_counter = metrics.counter("sched.forwards")
        self._request_counter = metrics.counter("sched.requests")
        self._compile_counters = {
            ("replay", 1): metrics.counter("nn.compile.replays", phase="1"),
            ("replay", 2): metrics.counter("nn.compile.replays", phase="2"),
            **{
                ("fallback", reason): metrics.counter("nn.compile.fallbacks", reason=reason)
                for reason in ("too_long", "dead", "verify")
            },
        }

    def run(self, requests: "list[Phase1Request | Phase2Request]") -> list:
        """Run ``requests`` as forwards of one phase each; results in order.

        Each phase's requests are cut, in order, into forwards of at most
        ``max_batch_cols`` columns (a request wider than that rides
        alone), or of one request each when batching is off. A forward
        that raises propagates to the caller.
        """
        self._request_counter.inc(len(requests))
        batching = self.config.batching
        limit = batching.max_batch_cols if batching.enabled else 0
        plans = nn_compile.plan_cache(self.model) if self.config.compile.enabled else None
        results: list = [None] * len(requests)
        for kind in (Phase1Request, Phase2Request):
            indices = [i for i, request in enumerate(requests) if isinstance(request, kind)]
            group = [requests[i] for i in indices]
            start = 0
            while start < len(group):
                stop, cols = start + 1, request_cost(group[start])
                while stop < len(group) and cols + request_cost(group[stop]) <= limit:
                    cols += request_cost(group[stop])
                    stop += 1
                self._forward_counter.inc()
                self._batch_requests_hist.observe(stop - start)
                self._batch_cols_hist.observe(cols)
                outputs = self._forward(group[start:stop], plans)
                for index, result in zip(indices[start:stop], outputs):
                    results[index] = result
                start = stop
        return results

    def _forward(self, requests: list, plans: "dict[int, nn_compile.CompiledPlan] | None") -> list:
        """One forward of one phase's requests, counting its compiled-plan
        events here even when it raises (a width over ``max_seq_len``
        raises after its ``too_long`` fallback). ``run_phase1`` and
        ``run_phase2`` are looked up on their module at call time, so a
        wrapper installed there sees every forward."""
        run = forward.run_phase1 if isinstance(requests[0], Phase1Request) else forward.run_phase2
        events: list = []
        try:
            return run(self.model, requests, plans, events)
        finally:
            for event in events:
                self._compile_counters[event].inc()
