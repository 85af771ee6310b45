"""Exact-width batched forward passes for the ADTD model.

Every execution mode reaches the model the same way: the detector's
:class:`~repro.sched.InferenceBatcher` hands each forward's requests to
:func:`run_phase1` / :func:`run_phase2`, several requests per forward when
batching is on and one per forward when it is off. A forward computes
every table at its own real widths: the compiled replay packs the real
tokens of all rows for the token-wise ops and runs attention and column
pooling per row (:class:`~repro.nn.compile.CompiledPlan`), and the eager
forward runs each table alone (:func:`~repro.nn.compile.eager_rows`). A
table's outputs therefore depend on that table alone, not on its batch:
batched and unbatched, compiled and eager runs agree bit for bit by
construction, with nothing padded and nothing grouped by width.

Forwards run under ``no_grad`` on whatever thread calls them and return
arrays of their own, one set per row; per-request results are fresh
arrays, so a request never pins its batch in memory. Phase-1 latents are
copied into a :class:`~repro.core.latent_cache.CachedEncoding`, at the
chunk's real metadata length, only for the chunks Phase 2 will read:
those with at least one column the request's ``phase2_policy`` finds
uncertain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.adtd import ADTDModel
from ..core.latent_cache import CachedEncoding
from ..core.thresholds import ThresholdPolicy
from ..features.encoding import EncodedTable, collate
from ..nn.compile import CompiledPlan, eager_rows
from ..nn.functional import stable_sigmoid

__all__ = [
    "Phase1Request",
    "Phase1Result",
    "Phase2Request",
    "Phase2Result",
    "run_phase1",
    "run_phase2",
]


@dataclass
class Phase1Request:
    """One chunk's metadata-tower classification request.

    ``phase2_policy`` decides whether the result keeps the chunk's
    latents: they are copied out of the forward only when the policy finds
    at least one uncertain column, i.e. when Phase 2 will read them.
    ``None`` (caching off, or Phase 2 disabled) never copies them.
    """

    encoded: EncodedTable
    phase2_policy: ThresholdPolicy | None = None

    @property
    def num_columns(self) -> int:
        return self.encoded.num_columns

    @property
    def meta_width(self) -> int:
        return len(self.encoded.meta.token_ids)


@dataclass
class Phase1Result:
    """Per-chunk Phase-1 output: probabilities + latents Phase 2 will read."""

    probs: np.ndarray  # (C, num_labels)
    encoding: CachedEncoding | None = None


@dataclass
class Phase2Request:
    """One chunk's content-tower verification request.

    ``cached`` carries the chunk's Phase-1 latents when its table job
    kept them; ``None`` (or an entry of another metadata length) makes the
    forward recompute this row's metadata tower — bitwise equal to the
    cached latents, since the same tokens go through the same eval-mode
    arithmetic.
    """

    encoded: EncodedTable
    cached: CachedEncoding | None = None

    @property
    def num_columns(self) -> int:
        return self.encoded.num_columns

    @property
    def meta_width(self) -> int:
        return len(self.encoded.meta.token_ids)

    @property
    def content_width(self) -> int:
        return len(self.encoded.content.token_ids)


@dataclass
class Phase2Result:
    """Per-chunk Phase-2 output: content-classifier probabilities."""

    probs: np.ndarray  # (C, num_labels)


def request_cost(request: "Phase1Request | Phase2Request") -> int:
    """Batch-budget cost of a request, in columns."""
    return max(request.num_columns, 1)


def run_phase1(
    model: ADTDModel,
    requests: list[Phase1Request],
    plans: "dict[int, CompiledPlan] | None",
    events: list | None = None,
) -> list[Phase1Result]:
    """One metadata-tower forward over ``requests``, each at its real width.

    Replays the compiled phase-1 plan from ``plans`` (the model's
    :func:`~repro.nn.compile.plan_cache`) when given them; ``None`` — or
    a row over ``max_seq_len`` — runs the eager forward of each table
    alone, which is bitwise identical to the replay. The plan's replay and
    fallback events are appended to ``events`` (see
    :meth:`~repro.nn.compile.CompiledPlan.run`).
    """
    if not requests:
        return []
    batch = collate([r.encoded for r in requests])
    outputs = None
    if plans is not None:
        outputs = plans[1].run(model, batch, None, [] if events is None else events)
    if outputs is None:
        outputs = eager_rows(model, 1, batch)
    results: list[Phase1Result] = []
    for request, (logits, layers) in zip(requests, outputs):
        probs = stable_sigmoid(logits)
        policy = request.phase2_policy
        encoding = None
        if policy is not None and policy.uncertain_columns(probs).size:
            encoding = CachedEncoding([layer[None].copy() for layer in layers])
        results.append(Phase1Result(probs=probs, encoding=encoding))
    return results


def run_phase2(
    model: ADTDModel,
    requests: list[Phase2Request],
    plans: "dict[int, CompiledPlan] | None",
    events: list | None = None,
) -> list[Phase2Result]:
    """One content-tower forward over ``requests``, each at its real widths
    and on its own latents when it has usable ones (``plans`` and
    ``events`` as in :func:`run_phase1`)."""
    if not requests:
        return []
    batch = collate([r.encoded for r in requests])
    cached = [
        r.cached if r.cached is not None and r.cached.usable_at(r.meta_width) else None
        for r in requests
    ]
    logits = None
    if plans is not None:
        logits = plans[2].run(model, batch, cached, [] if events is None else events)
    if logits is None:
        logits = eager_rows(model, 2, batch, cached)
    return [Phase2Result(probs=stable_sigmoid(row)) for row in logits]
