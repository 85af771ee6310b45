"""Width-bucketed batched forward passes for the ADTD model.

Every execution mode reaches the model the same way: the detector's
:class:`~repro.sched.InferenceBatcher` groups requests by width and runs
each group through :func:`run_phase1` / :func:`run_phase2`, several
requests per forward when batching is on and one per forward when it is
off. For that to be *safe* — batched and unbatched runs must produce
bitwise-identical predictions — the padded sequence widths a chunk sees
must not depend on which batch it rode in: float32 reductions regroup
when the padded width changes, shifting results by ~1e-6, which is
enough to flip a threshold decision. Two mechanisms guarantee identical
widths:

* every request's padded widths are quantized with :func:`bucket_width`
  before collating, and
* a forward only carries requests whose quantized widths already match
  (:func:`group_requests`), so collation never re-pads a row.

Adding *rows* is free: extra tables in the batch dimension and extra
padded columns in the column dimension never change a real row's
arithmetic (each row's reductions run over its own axis), which is what
makes cross-table batching exact. Forwards run under ``no_grad`` on
whatever thread calls them, and a compiled replay, like an eager forward,
returns arrays of its own; per-request results are sliced back out as
contiguous copies so a request never pins its whole batch in memory.
Phase-1 latents are copied into a
:class:`~repro.core.latent_cache.CachedEncoding` only for the chunks
Phase 2 will read: those with at least one column the request's
``phase2_policy`` finds uncertain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.adtd import ADTDModel
from ..core.latent_cache import CachedEncoding
from ..core.thresholds import ThresholdPolicy
from ..features.encoding import EncodedTable, collate
from ..nn.compile import CompiledPlan, eager_phase1, eager_phase2
from ..nn.functional import stable_sigmoid

__all__ = [
    "bucket_width",
    "Phase1Request",
    "Phase1Result",
    "Phase2Request",
    "Phase2Result",
    "run_phase1",
    "run_phase2",
    "group_requests",
]


def bucket_width(length: int, quantum: int, cap: int | None = None) -> int:
    """Quantize a sequence length up onto a geometric bucket ladder.

    Buckets start at ``quantum`` and grow by ~1.5x, each rung rounded up
    to a multiple of ``quantum`` (16 -> 16, 32, 48, 80, 128, 192, ...).
    A geometric ladder keeps the number of distinct widths small — so
    requests from different tables actually land in shared buckets and
    share forwards — while bounding padding waste at ~33% of the sequence.
    Linear quantization would waste less padding but shred medium-length
    content sequences across dozens of buckets, defeating batching.

    Capped at ``cap`` (the encoder's ``max_seq_len``) so bucketing never
    asks the model for a longer sequence than it supports; lengths at or
    above the cap keep their exact width.
    """
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    width = quantum
    while width < length:
        width = -(-(width + width // 2) // quantum) * quantum
    if cap is not None and width > cap:
        width = max(length, min(width, cap))
    return width


@dataclass
class Phase1Request:
    """One chunk's metadata-tower classification request.

    ``phase2_policy`` decides whether the result keeps the chunk's
    latents: they are copied out of the batch only when the policy finds
    at least one uncertain column, i.e. when Phase 2 will read them.
    ``None`` (caching off, or Phase 2 disabled) never copies them.
    """

    encoded: EncodedTable
    meta_width: int
    phase2_policy: ThresholdPolicy | None = None

    @property
    def num_columns(self) -> int:
        return self.encoded.num_columns

    @property
    def group_key(self) -> tuple:
        return (1, self.meta_width)


@dataclass
class Phase1Result:
    """Per-chunk Phase-1 output: probabilities + latents Phase 2 will read."""

    probs: np.ndarray  # (C, num_labels)
    encoding: CachedEncoding | None = None


@dataclass
class Phase2Request:
    """One chunk's content-tower verification request.

    ``cached`` carries the chunk's Phase-1 latents when its table job
    kept them; ``None`` (or a width-incompatible entry) makes the forward
    recompute the metadata tower for the whole batch — bitwise equal to
    the cached latents, since the same tokens at the same width go
    through the same eval-mode arithmetic.
    """

    encoded: EncodedTable
    meta_width: int
    content_width: int
    cached: CachedEncoding | None = None

    @property
    def num_columns(self) -> int:
        return self.encoded.num_columns

    @property
    def group_key(self) -> tuple:
        return (2, self.meta_width, self.content_width)


@dataclass
class Phase2Result:
    """Per-chunk Phase-2 output: content-classifier probabilities."""

    probs: np.ndarray  # (C, num_labels)


def request_cost(request: "Phase1Request | Phase2Request") -> int:
    """Batch-budget cost of a request, in columns."""
    return max(request.num_columns, 1)


def _phase1_results(
    requests: list[Phase1Request],
    logits_np: np.ndarray,
    layer_arrays: list[np.ndarray],
) -> list[Phase1Result]:
    """Slice per-request results (contiguous copies) out of batch outputs.

    Shared by the eager and the compiled path.
    """
    probs = stable_sigmoid(logits_np)
    results: list[Phase1Result] = []
    for row, request in enumerate(requests):
        row_probs = probs[row, : request.num_columns].copy()
        policy = request.phase2_policy
        encoding = None
        if policy is not None and policy.uncertain_columns(row_probs).size:
            # Real copies, not np.ascontiguousarray: a single-row slice of
            # a C-contiguous batch output is already contiguous, so that
            # would return a *view*, pinning the whole batch in memory.
            encoding = CachedEncoding(
                [array[row : row + 1].copy() for array in layer_arrays]
            )
        results.append(Phase1Result(probs=row_probs, encoding=encoding))
    return results


def run_phase1(
    model: ADTDModel,
    requests: list[Phase1Request],
    plans: "dict[int, CompiledPlan] | None",
    events: list | None = None,
) -> list[Phase1Result]:
    """One collated metadata-tower forward over same-width requests.

    Replays the compiled phase-1 plan from ``plans`` (the model's
    :func:`~repro.nn.compile.plan_cache`) when given them; ``None`` — or
    a fallback: width over ``max_seq_len``, a retired shape — runs the
    eager no-grad forward, which is bitwise identical to the replay. The
    plan's replay and fallback events are appended to ``events`` (see
    :meth:`~repro.nn.compile.CompiledPlan.run`).
    """
    if not requests:
        return []
    meta_width = requests[0].meta_width
    if any(r.meta_width != meta_width for r in requests):
        raise ValueError("phase-1 batch mixes meta widths; group_requests() first")
    batch = collate([r.encoded for r in requests], meta_width=meta_width)
    outputs = None
    if plans is not None:
        outputs = plans[1].run(model, batch, None, [] if events is None else events)
    if outputs is None:
        outputs = eager_phase1(model, batch)
    return _phase1_results(requests, *outputs)


def run_phase2(
    model: ADTDModel,
    requests: list[Phase2Request],
    plans: "dict[int, CompiledPlan] | None",
    events: list | None = None,
) -> list[Phase2Result]:
    """One collated content-tower forward over same-width requests
    (``plans`` and ``events`` as in :func:`run_phase1`)."""
    if not requests:
        return []
    meta_width = requests[0].meta_width
    content_width = requests[0].content_width
    if any(
        r.meta_width != meta_width or r.content_width != content_width for r in requests
    ):
        raise ValueError("phase-2 batch mixes widths; group_requests() first")
    batch = collate(
        [r.encoded for r in requests],
        meta_width=meta_width,
        content_width=content_width,
    )
    all_usable = all(
        r.cached is not None and r.cached.usable_at(meta_width) for r in requests
    )
    cached = [r.cached for r in requests] if all_usable else None
    logits = None
    if plans is not None:
        logits = plans[2].run(model, batch, cached, [] if events is None else events)
    if logits is None:
        logits = eager_phase2(model, batch, cached)
    return _phase2_results(requests, logits)


def _phase2_results(
    requests: list[Phase2Request], logits_np: np.ndarray
) -> list[Phase2Result]:
    """Slice per-request phase-2 probabilities (copies) out of batch logits."""
    probs = stable_sigmoid(logits_np)
    return [
        Phase2Result(probs=probs[row, : request.num_columns].copy())
        for row, request in enumerate(requests)
    ]


def group_requests(
    requests: list["Phase1Request | Phase2Request"],
) -> list[tuple[list[int], list["Phase1Request | Phase2Request"]]]:
    """Partition requests into width-compatible forward groups.

    Returns ``(indices, subset)`` pairs where ``indices`` maps each
    subset entry back to its position in ``requests``. Groups preserve
    submission order within themselves.
    """
    groups: dict[tuple, tuple[list[int], list]] = {}
    for index, request in enumerate(requests):
        indices, subset = groups.setdefault(request.group_key, ([], []))
        indices.append(index)
        subset.append(request)
    return list(groups.values())


def run_group(
    model: ADTDModel,
    subset: list["Phase1Request | Phase2Request"],
    plans: "dict[int, CompiledPlan] | None",
    events: list | None = None,
) -> list["Phase1Result | Phase2Result"]:
    """Run one width-compatible group through the right forward."""
    if isinstance(subset[0], Phase1Request):
        return run_phase1(model, subset, plans, events)
    return run_phase2(model, subset, plans, events)
