"""Compiled inference for the ADTD no-grad hot path.

The detector's S2 stage is pure model compute, and the eager forward pays
per-op Python dispatch and ``Tensor`` wrapping on every call. This module
trades that overhead for **replays** of a hand-written plan:

* A model has exactly two :class:`CompiledPlan` objects, one per phase
  (:func:`plan_cache`). Replays are straight-line numpy — zero
  ``Tensor``/autograd objects on the hot path — over the parameters of
  the model they are handed, read afresh on every replay, and take every
  shape from the batch, so one plan serves every width and every weight
  version.
* A replay allocates its own buffers and writes them through the shared
  ``out=`` kernels in :mod:`repro.nn.functional` (``softmax_`` in place
  in the attention scores, fused residual+``layer_norm_``, fused
  bias+``gelu_``). It returns arrays the caller owns and takes no lock,
  so several loops on one model (a ``detect()`` beside a service) all
  replay at once.
* The asymmetric cross-attention's K/V input buffer is fed directly from
  the latents Phase 1 kept for the chunk
  (:class:`~repro.core.latent_cache.CachedEncoding`).

Bitwise safety
--------------
Compiled replays must be bitwise identical to the eager no-grad forward
(:func:`eager_phase1` / :func:`eager_phase2`, which the fallback paths
call too). Two mechanisms guarantee it:

1. Replays call the *same* raw-ndarray kernels the eager no-grad fast
   paths call (``softmax_``/``layer_norm_``/``gelu_``/``relu_``), and
   every remaining op is the identical ufunc/GEMM — one GEMM per
   projection, like the eager ``Linear`` — on the same live weight
   arrays; only the output buffer bookkeeping differs.
2. The first replay of each **shape** (the meta width, or the
   ``(meta, content)`` widths) in each latent mode is verified against the
   eager forward of the triggering batch, bit for bit on every row. The
   reference runs :data:`VERIFY_ROWS` rows at a time at the batch's
   padded widths and is concatenated (:func:`sliced_reference`): a row's
   arithmetic does not depend on its neighbours, so this equals the
   whole-batch forward, and the eager transient is bounded by the slice,
   not by the batch. A mismatch retires the shape (permanent eager
   fallback, counted under ``nn.compile.fallbacks{reason=verify}``).

Plans are looked up via a module-level weak registry (never stored on
the model, so models stay picklable/deep-copyable). A width over the
encoder's ``max_seq_len`` and a retired shape fall back to the eager
forward — safe, because eager and compiled agree bitwise. The detector's
:class:`~repro.sched.InferenceBatcher` looks the plans up once per run,
and only when its own ``compile.enabled`` is set: a detector with
compilation off runs eager and leaves the plans of other detectors on the
same model alone. The batcher also counts the replays and fallbacks of
its own forwards, so plans shared by several detectors never report into
one detector's registry for another.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

import numpy as np

from .functional import (
    additive_attention_mask,
    column_pooling_matrix,
    gelu_,
    layer_norm_,
    relu_,
    softmax_,
)
from .tensor import Tensor, no_grad

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..features.encoding import Batch

__all__ = [
    "CompileConfig",
    "CompiledPlan",
    "eager_phase1",
    "eager_phase2",
    "plan_cache",
]


@dataclass(frozen=True)
class CompileConfig:
    """Whether a detector's forwards replay compiled plans
    (``DetectorConfig.compile``); ``enabled=False`` is the eager ablation."""

    enabled: bool = True


class CompiledPlan:
    """The replay program of one phase, for every width.

    A plan holds no weights and no buffers: every replay reads the
    parameters of the ``model`` that :meth:`run` is handed, so an in-place
    update, an optimiser step or a ``load_state_dict`` reaches the next
    replay, and it writes into arrays it allocates itself and hands back.
    Replays on one plan may therefore run on several threads at once.

    The safety state is kept per *shape* — the meta width (phase 1) or
    the ``(meta, content)`` widths (phase 2): ``verified`` holds the
    ``(shape, mode)`` pairs checked against the eager forward, and
    ``dead`` the shapes that disagreed with it and now always run eager.
    It is per shape and not per weight version because the replay and the
    eager forward run the same op sequence on the same live arrays: the
    values they read cannot make them part, while the shape picks the
    kernels (and their blocking) that could. Two first replays of one
    shape at once both verify; each records the same outcome.
    """

    def __init__(self, phase: int, config: Any) -> None:
        self.phase = phase
        self.verified: set[tuple] = set()
        self.dead: set = set()
        encoder_config = config.encoder
        self.max_width = encoder_config.max_seq_len
        self.hidden = encoder_config.hidden_size
        self.heads = encoder_config.num_heads
        self.head_dim = self.hidden // self.heads
        self.intermediate = encoder_config.intermediate_size
        # Matches the eager `* (1.0 / np.sqrt(head_dim))`: Tensor coerces
        # the float64 scalar to float32 before multiplying, so do we.
        self.scale = np.asarray(1.0 / np.sqrt(self.head_dim), dtype=np.float32)
        self.max_column_id = config.max_column_id

    # ------------------------------------------------------------------
    # Replay kernels
    # ------------------------------------------------------------------
    def _embed(
        self, model: Any, ids: np.ndarray, segments: np.ndarray, column_ids: np.ndarray
    ) -> np.ndarray:
        out = np.empty(ids.shape + (self.hidden,), np.float32)
        scratch = np.empty_like(out)
        np.take(model.token_embedding.weight.data, ids, axis=0, out=out)
        # position ids are row-constant, so adding the (seq, H) table
        # broadcast is elementwise-identical to the eager (B, seq, H) gather.
        out += model.position_embedding.weight.data[: ids.shape[1]]
        np.take(model.segment_embedding.weight.data, segments, axis=0, out=scratch)
        out += scratch
        clamped = np.minimum(column_ids, self.max_column_id - 1)
        np.take(model.column_embedding.weight.data, clamped, axis=0, out=scratch)
        out += scratch
        norm = model.embedding_norm
        layer_norm_(out, norm.weight.data, norm.bias.data, norm.eps, out=out, scratch=scratch)
        return out

    def _attention_block(
        self, block: Any, query: np.ndarray, kv_input: np.ndarray, mask: np.ndarray
    ) -> np.ndarray:
        """One transformer block as straight-line numpy.

        ``kv_input is query`` is the self-attention (metadata tower) form;
        otherwise the asymmetric cross-attention form over the joint
        sequence.
        """
        attention = block.attention
        batch_size, q_len, hidden = query.shape
        kv_len = kv_input.shape[1]
        heads, head_dim = self.heads, self.head_dim
        q_proj = np.matmul(query, attention.query_proj.weight.data)
        q_proj += attention.query_proj.bias.data
        k_proj = np.matmul(kv_input, attention.key_proj.weight.data)
        k_proj += attention.key_proj.bias.data
        v_proj = np.matmul(kv_input, attention.value_proj.weight.data)
        v_proj += attention.value_proj.bias.data
        q_heads = q_proj.reshape(batch_size, q_len, heads, head_dim).swapaxes(1, 2)
        k_heads = k_proj.reshape(batch_size, kv_len, heads, head_dim).swapaxes(1, 2)
        v_heads = v_proj.reshape(batch_size, kv_len, heads, head_dim).swapaxes(1, 2)
        scores = np.matmul(q_heads, k_heads.swapaxes(2, 3))
        scores *= self.scale
        scores += mask
        softmax_(scores, out=scores)
        context = np.matmul(scores, v_heads)
        # A C-order copy: reshaping the swapped view cannot be a view.
        merged = context.swapaxes(1, 2).reshape(batch_size, q_len, hidden)
        attn = np.matmul(merged, attention.output_proj.weight.data)
        attn += attention.output_proj.bias.data
        # Fused residual + layer_norm: `merged` is free again and serves
        # as the variance scratch.
        np.add(query, attn, out=attn)
        norm = block.attention_norm
        layer_norm_(attn, norm.weight.data, norm.bias.data, norm.eps, out=attn, scratch=merged)
        ffn = np.matmul(attn, block.ffn_in.weight.data)
        ffn += block.ffn_in.bias.data
        # Fused bias + GELU, in place in the intermediate buffer.
        gelu_(ffn, out=ffn)
        out = np.matmul(ffn, block.ffn_out.weight.data)
        out += block.ffn_out.bias.data
        np.add(attn, out, out=out)
        norm = block.ffn_norm
        layer_norm_(out, norm.weight.data, norm.bias.data, norm.eps, out=out, scratch=merged)
        return out

    def _meta_tower(self, model: Any, batch: "Batch") -> list[np.ndarray]:
        hidden = self._embed(model, batch.meta_ids, batch.meta_segments, batch.meta_column_ids)
        mask = additive_attention_mask(batch.meta_mask)
        outputs = [hidden]
        for block in model.encoder.blocks:
            hidden = self._attention_block(block, hidden, hidden, mask)
            outputs.append(hidden)
        return outputs

    def _classifier(self, features: np.ndarray, head: Any) -> np.ndarray:
        hidden = np.matmul(features, head.hidden.weight.data)
        hidden += head.hidden.bias.data
        relu_(hidden, out=hidden)
        logits = np.matmul(hidden, head.output.weight.data)
        logits += head.output.bias.data
        return logits

    def _replay_phase1(self, model: Any, batch: "Batch") -> tuple[np.ndarray, list[np.ndarray]]:
        meta_layers = self._meta_tower(model, batch)
        batch_size = batch.meta_ids.shape[0]
        num_columns = batch.col_positions.shape[1]
        numeric_dim = batch.numeric.shape[-1]
        pooling = column_pooling_matrix(batch.meta_column_ids, batch.meta_mask, num_columns)
        features = np.empty((batch_size, num_columns, self.hidden + numeric_dim), np.float32)
        np.matmul(pooling, meta_layers[-1], out=features[..., : self.hidden])
        features[..., self.hidden :] = batch.numeric
        logits = self._classifier(features, model.meta_classifier)
        return logits, meta_layers

    def _replay_phase2(self, model: Any, batch: "Batch", cached: "list | None") -> np.ndarray:
        batch_size, meta_width = batch.meta_ids.shape
        content_width = batch.content_ids.shape[1]
        blocks = model.encoder.blocks
        hidden_size, num_layers = self.hidden, len(blocks)
        # The cross-attention KV concatenation is precomputed into one
        # contiguous buffer per layer: metadata latents land in [:M]
        # (straight from latent-cache slices when available), the content
        # stream's running hidden state in [M:].
        kv_bufs = [
            np.empty((batch_size, meta_width + content_width, hidden_size), np.float32)
            for _ in range(num_layers)
        ]
        if cached is not None:
            for i in range(num_layers):
                dst = kv_bufs[i]
                for row, encoding in enumerate(cached):
                    dst[row, :meta_width] = encoding.layer_outputs[i][0]
            meta_last = np.empty((batch_size, meta_width, hidden_size), np.float32)
            for row, encoding in enumerate(cached):
                meta_last[row] = encoding.layer_outputs[num_layers][0]
        else:
            meta_layers = self._meta_tower(model, batch)
            for i in range(num_layers):
                kv_bufs[i][:, :meta_width] = meta_layers[i]
            meta_last = meta_layers[num_layers]
        hidden = self._embed(model, batch.content_ids, batch.content_segments, batch.content_column_ids)
        joint_padding = np.concatenate([batch.meta_mask, batch.content_mask], axis=1)
        joint_mask = additive_attention_mask(joint_padding)
        for index, block in enumerate(blocks):
            kv_bufs[index][:, meta_width:] = hidden
            hidden = self._attention_block(block, hidden, kv_bufs[index], joint_mask)
        num_columns = batch.col_positions.shape[1]
        numeric_dim = batch.numeric.shape[-1]
        pool_meta = column_pooling_matrix(batch.meta_column_ids, batch.meta_mask, num_columns)
        pool_content = column_pooling_matrix(batch.content_column_ids, batch.content_mask, num_columns)
        features = np.empty((batch_size, num_columns, 2 * hidden_size + numeric_dim), np.float32)
        np.matmul(pool_content, hidden, out=features[..., :hidden_size])
        np.matmul(pool_meta, meta_last, out=features[..., hidden_size : 2 * hidden_size])
        features[..., 2 * hidden_size :] = batch.numeric
        return self._classifier(features, model.content_classifier)

    def _matches(self, outputs: Any, reference: Any) -> bool:
        if self.phase == 1:
            logits, layers = outputs
            ref_logits, ref_layers = reference
            if logits.tobytes() != ref_logits.tobytes():
                return False
            return all(a.tobytes() == b.tobytes() for a, b in zip(layers, ref_layers))
        return outputs.tobytes() == reference.tobytes()

    # ------------------------------------------------------------------
    def run(self, model: Any, batch: "Batch", cached: "list | None", events: list) -> Any:
        """Replay, and verify first-time shapes and modes.

        Returns the replay outputs (phase 1: ``(logits, layer_arrays)``,
        phase 2: ``logits``), which the caller owns, or ``None`` when the
        caller must fall back to the eager forward. A verification
        mismatch still returns *valid* outputs — the eager reference just
        computed — while retiring the batch's shape. ``cached`` is the
        per-request list of latent-cache encodings when *all* requests
        have width-usable entries, else ``None`` (phase 2 then recomputes
        the metadata tower, like the eager path). ``("replay", phase)``
        and ``("fallback", reason)`` events are appended to ``events``
        for the caller to count.
        """
        if self.phase == 1:
            shape = batch.meta_ids.shape[1]
            mode = "meta"
            width = shape
        else:
            shape = (batch.meta_ids.shape[1], batch.content_ids.shape[1])
            mode = "cached" if cached is not None else "recompute"
            width = max(shape)
        if width > self.max_width:
            # The eager forward raises its typed error for this width.
            events.append(("fallback", "off_ladder"))
            return None
        if shape in self.dead:
            events.append(("fallback", "dead"))
            return None
        outputs = self._replay(model, batch, cached)
        if (shape, mode) not in self.verified:
            reference = sliced_reference(model, self.phase, batch, cached)
            if not self._matches(outputs, reference):
                self.dead.add(shape)
                events.append(("fallback", "verify"))
                return reference
            self.verified.add((shape, mode))
        events.append(("replay", self.phase))
        return outputs

    def _replay(self, model: Any, batch: "Batch", cached: "list | None") -> Any:
        if self.phase == 1:
            return self._replay_phase1(model, batch)
        return self._replay_phase2(model, batch, cached)


# ----------------------------------------------------------------------
# The eager no-grad forward: the fallback path and the verify reference.
# ----------------------------------------------------------------------
# Rows per eager forward of a verification reference: the transient it
# allocates is bounded by this slice, not by the batch it verifies. One
# row gives the lowest peak RSS and no slower a warm-up (DESIGN §5d).
VERIFY_ROWS = 1


def _rows(batch: "Batch", start: int, stop: int) -> "Batch":
    """Rows ``[start, stop)`` of ``batch``, at the batch's padded widths."""
    return replace(
        batch,
        **{
            name: None if value is None else value[start:stop]
            for name, value in vars(batch).items()
        },
    )


def sliced_reference(model: Any, phase: int, batch: "Batch", cached: "list | None") -> Any:
    """The eager forward of ``batch``, run :data:`VERIFY_ROWS` rows at a time.

    Equal bit for bit to :func:`eager_phase1` / :func:`eager_phase2` of
    the whole batch: every slice keeps the batch's padded widths, and a
    row's arithmetic never depends on the other rows beside it.
    """
    parts = []
    for start in range(0, batch.size, VERIFY_ROWS):
        rows = _rows(batch, start, start + VERIFY_ROWS)
        if phase == 1:
            parts.append(eager_phase1(model, rows))
        else:
            part_cached = None if cached is None else cached[start : start + VERIFY_ROWS]
            parts.append(eager_phase2(model, rows, part_cached))
    if phase == 1:
        logits = np.concatenate([part[0] for part in parts])
        layers = [np.concatenate(arrays) for arrays in zip(*(part[1] for part in parts))]
        return logits, layers
    return np.concatenate(parts)


def eager_phase1(model: Any, batch: "Batch") -> tuple[np.ndarray, list[np.ndarray]]:
    """Eager metadata-tower forward: ``(logits, layer_arrays)`` as arrays."""
    with no_grad():
        meta_layers = model.encode_metadata(batch)
        logits = model.meta_logits(batch, meta_layers)
    return logits.detach().numpy(), [layer.detach().numpy() for layer in meta_layers]


def eager_phase2(model: Any, batch: "Batch", cached: "list | None") -> np.ndarray:
    """Eager content-tower forward: the logits array.

    ``cached`` is the per-request list of latent-cache encodings, or
    ``None`` to recompute the metadata tower for the whole batch —
    eval-mode recomputation is bitwise equal to the cached latents.
    """
    with no_grad():
        if cached is not None:
            meta_layers = [
                Tensor(np.concatenate([enc.layer_outputs[i] for enc in cached], axis=0))
                for i in range(len(cached[0].layer_outputs))
            ]
        else:
            meta_layers = model.encode_metadata(batch)
        content_hidden = model.encode_content(batch, meta_layers)
        logits = model.content_logits(batch, meta_layers, content_hidden)
    return logits.detach().numpy()


# ----------------------------------------------------------------------
# Module-level registry: model -> its two plans.
#
# Weak keys, so the plans never outlive (or pin) their model, and nothing
# is stored on the model itself — models stay deep-copyable and
# serializable exactly as before.
# ----------------------------------------------------------------------
_CACHES: "weakref.WeakKeyDictionary[Any, dict[int, CompiledPlan]]" = weakref.WeakKeyDictionary()
_CACHES_LOCK = threading.Lock()


def plan_cache(model: Any) -> "dict[int, CompiledPlan]":
    """``model``'s two :class:`CompiledPlan` objects, keyed by phase.

    Made on first use and shared from then on by every detector on the
    model, so a shape one detector verified (or retired) is verified (or
    retired) for all. The plans hold no weights and no metrics registry:
    every replay or fallback is appended to the ``events`` list of the
    call, for the calling :class:`~repro.sched.InferenceBatcher` to count
    into its own registry.
    """
    with _CACHES_LOCK:
        plans = _CACHES.get(model)
        if plans is None:
            plans = _CACHES[model] = {
                phase: CompiledPlan(phase, model.config) for phase in (1, 2)
            }
        return plans
