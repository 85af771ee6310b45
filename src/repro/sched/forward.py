"""Exact-width batched forward passes for the ADTD model.

Every execution mode reaches the model the same way: the detector's
:class:`~repro.sched.InferenceBatcher` hands each forward's requests to
:func:`run_phase1` / :func:`run_phase2`, several requests per forward when
batching is on and one per forward when it is off. A forward computes
every table at its own real widths, from the requests' encodings as they
are: the compiled replay concatenates their token arrays into one packed
stream for the token-wise ops and runs attention and column pooling per
row (:class:`~repro.nn.compile.CompiledPlan`). The eager forward
(:func:`eager_forward`) runs one table alone, on the padded
:class:`~repro.features.encoding.Batch` that :func:`collate` makes of it:
to verify a row key a plan sees for the first time, to answer a key it
retired, with compilation off, and for a row over ``max_seq_len``. A
table's outputs therefore depend on that table alone, not on its batch:
batched and unbatched, compiled and eager runs agree bit for bit by
construction, with nothing grouped by width.

Forwards run under ``no_grad`` on whatever thread calls them and return
arrays of their own, one set per row; per-request results are fresh
arrays, so a request never pins its batch in memory. Phase-1 latents are
copied into a :class:`~repro.core.latent_cache.CachedEncoding`, at the
chunk's real metadata length, only for the chunks Phase 2 will read:
those with at least one column the request's ``phase2_policy`` finds
uncertain.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.adtd import ADTDModel
from ..core.latent_cache import CachedEncoding
from ..core.thresholds import ThresholdPolicy
from ..features.encoding import EncodedTable, collate
from ..nn import Tensor, no_grad
from ..nn.compile import CompiledPlan
from ..nn.functional import stable_sigmoid

__all__ = [
    "Phase1Request",
    "Phase1Result",
    "Phase2Request",
    "Phase2Result",
    "eager_forward",
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
    kept them. The encoding shares its metadata tokens with the chunk's
    Phase-1 encoding, so kept latents fit it; ``None`` (or an entry of
    another metadata length) makes the forward recompute this row's
    metadata tower — bitwise equal to the cached latents, since the same
    tokens go through the same eval-mode arithmetic.
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


def eager_forward(
    model: ADTDModel, phase: int, encoded: EncodedTable, cached: CachedEncoding | None = None
) -> Any:
    """The eager no-grad forward of one table alone, at its real widths:
    the reference every replayed row equals bit for bit, in the form
    :meth:`~repro.nn.compile.CompiledPlan.run` returns (phase 1:
    ``(logits, layer_arrays)``, phase 2: ``logits``). Phase 2 reads
    ``cached``'s latents when given them and recomputes the metadata tower
    otherwise — in eval mode the two are bitwise equal."""
    batch = collate([encoded])
    columns = encoded.num_columns
    with no_grad():
        if phase == 1:
            meta_layers = model.encode_metadata(batch)
            logits = model.meta_logits(batch, meta_layers).numpy()
            return logits[0, :columns], [layer.numpy()[0] for layer in meta_layers]
        if cached is not None:
            meta_layers = [Tensor(layer) for layer in cached.layer_outputs]
        else:
            meta_layers = model.encode_metadata(batch)
        content_hidden = model.encode_content(batch, meta_layers)
        logits = model.content_logits(batch, meta_layers, content_hidden).numpy()
    return logits[0, :columns]


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
    encoded = [r.encoded for r in requests]
    reference = functools.partial(eager_forward, model, 1)
    outputs = None
    if plans is not None:
        outputs = plans[1].run(model, encoded, None, [] if events is None else events, reference)
    if outputs is None:
        outputs = [reference(table) for table in encoded]
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
    encoded = [r.encoded for r in requests]
    cached = [
        r.cached if r.cached is not None and r.cached.usable_at(r.meta_width) else None
        for r in requests
    ]
    reference = functools.partial(eager_forward, model, 2)
    logits = None
    if plans is not None:
        logits = plans[2].run(model, encoded, cached, [] if events is None else events, reference)
    if logits is None:
        logits = [reference(table, latents) for table, latents in zip(encoded, cached)]
    return [Phase2Result(probs=stable_sigmoid(row)) for row in logits]
