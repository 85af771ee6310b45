"""Compiled inference for the ADTD no-grad hot path.

The detector's S2 stage is pure model compute, and the eager forward pays
per-op Python dispatch, Tensor wrapping and fresh numpy allocations on
every call. This module trades that overhead for **replays** of a
hand-written plan:

* A model's :class:`PlanCache` holds exactly two :class:`CompiledPlan`
  objects, one per phase. Replays are straight-line numpy — zero
  ``Tensor``/autograd objects on the hot path — over the parameters of
  the model they are handed, read afresh on every replay, and take every
  shape from the batch, so one plan serves every width and every weight
  version.
* Both plans replay into **one workspace arena**, owned by the cache:
  named, growable buffers reused across replays, written through the
  shared ``out=`` kernels in :mod:`repro.nn.functional` (``softmax_``
  reusing the attention-score buffer, fused residual+``layer_norm_``,
  fused bias+``gelu_``). Wider forwards grow the arena to the largest
  demand per buffer name.
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

Caches are looked up via a module-level weak registry (never stored on
the model, so models stay picklable/deep-copyable). A width over the
encoder's ``max_seq_len``, a busy arena (another thread mid-replay on the
same model), an arena-budget overrun and a retired shape all fall back
to the eager forward — safe, because eager and compiled agree bitwise.
The detector's :class:`~repro.sched.InferenceBatcher` looks the cache up
once per run, and only when its own ``compile.enabled`` is set: a
detector with compilation off runs eager and leaves the plans of other
detectors on the same model alone. The batcher also counts the replays
and fallbacks of its own forwards, so a cache shared by several
detectors never reports into one detector's registry for another.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Iterator

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
    "PlanCache",
    "eager_phase1",
    "eager_phase2",
    "enable",
    "disable",
    "plan_cache",
]


@dataclass(frozen=True)
class CompileConfig:
    """Knobs of the inference compiler (``DetectorConfig.compile``).

    ``arena_bytes_limit`` bounds the bytes of the cache's one workspace
    arena, which both plans share — a replay whose buffers would grow it
    past the limit falls back to the eager forward for that batch.
    """

    enabled: bool = True
    arena_bytes_limit: int = 256 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.arena_bytes_limit < 1:
            raise ValueError("arena_bytes_limit must be at least 1 byte")

    def replace(self, **changes: Any) -> "CompileConfig":
        """A modified copy (re-validated)."""
        return replace(self, **changes)


class ArenaLimitError(RuntimeError):
    """A replay's workspace demand exceeded ``arena_bytes_limit``."""


class Arena:
    """Named, growable workspace buffers backing every replay of one plan cache.

    ``buf(name, shape)`` returns a contiguous view of a flat backing
    array, re-used across replays; the backing only reallocates when a
    replay needs more elements than any previous one under that name.
    Replays of every width write the same names, so the arena holds the
    largest demand per name, not a sum over widths. Growth that
    would take :attr:`bytes` over ``limit`` raises
    :class:`ArenaLimitError`. The owning :class:`PlanCache`'s replay lock
    guards every call.
    """

    def __init__(self, limit: int) -> None:
        self._slots: dict[str, np.ndarray] = {}
        # name -> (shape, dtype, view): the last view handed out per name.
        # A steady batch size (the common replay regime) turns every buf()
        # call after the first into one dict hit instead of a slice+reshape.
        # The entry always views the *current* backing: any reallocation
        # happens inside buf(), which overwrites the entry in the same call.
        self._views: dict[str, tuple[tuple[int, ...], np.dtype, np.ndarray]] = {}
        self.limit = limit
        self.bytes = 0

    def buf(self, name: str, shape: tuple[int, ...], dtype: Any = np.float32) -> np.ndarray:
        cached = self._views.get(name)
        if cached is not None and cached[0] == shape and cached[1] == dtype:
            return cached[2]
        dtype = np.dtype(dtype)
        size = 1
        for dim in shape:
            size *= int(dim)
        backing = self._slots.get(name)
        if backing is None or backing.dtype != dtype or backing.size < size:
            released = backing.nbytes if backing is not None else 0
            total = self.bytes - released + size * dtype.itemsize
            if total > self.limit:
                raise ArenaLimitError(
                    f"the workspace arena would use {total} bytes, "
                    f"over the {self.limit}-byte limit"
                )
            backing = np.empty(size, dtype=dtype)
            self._slots[name] = backing
            self.bytes = total
        view = backing[:size].reshape(shape)
        self._views[name] = (shape, dtype, view)
        return view

    def release(self) -> None:
        """Drop all buffers."""
        self._slots.clear()
        self._views.clear()
        self.bytes = 0


class CompiledPlan:
    """The replay program of one phase, for every width.

    A plan holds no weights: every replay reads the parameters of the
    ``model`` that :meth:`run` is handed, so an in-place update, an
    optimiser step or a ``load_state_dict`` reaches the next replay, and
    nothing a weight change can make stale lives here. Its replays write
    into the owning :class:`PlanCache`'s one arena, so every replay entry
    point assumes the caller holds that cache's replay lock.

    The safety state is kept per *shape* — the meta width (phase 1) or
    the ``(meta, content)`` widths (phase 2): ``verified`` holds the
    ``(shape, mode)`` pairs checked against the eager forward, and
    ``dead`` the shapes that disagreed with it and now always run eager.
    It is per shape and not per weight version because the replay and the
    eager forward run the same op sequence on the same live arrays: the
    values they read cannot make them part, while the shape picks the
    kernels (and their blocking) that could.
    """

    def __init__(self, phase: int, cache: "PlanCache", config: Any) -> None:
        self.phase = phase
        self.replays = 0
        self.verified: set[tuple] = set()
        self.dead: set = set()
        self._cache = cache
        encoder_config = config.encoder
        self.hidden = encoder_config.hidden_size
        self.heads = encoder_config.num_heads
        self.head_dim = self.hidden // self.heads
        self.intermediate = encoder_config.intermediate_size
        # Matches the eager `* (1.0 / np.sqrt(head_dim))`: Tensor coerces
        # the float64 scalar to float32 before multiplying, so do we.
        self.scale = np.asarray(1.0 / np.sqrt(self.head_dim), dtype=np.float32)
        self.max_column_id = config.max_column_id

    # ------------------------------------------------------------------
    # Replay kernels (caller holds the cache's replay lock)
    # ------------------------------------------------------------------
    def _embed(
        self, model: Any, ids: np.ndarray, segments: np.ndarray, column_ids: np.ndarray, name: str
    ) -> np.ndarray:
        batch_size, seq = ids.shape
        arena = self._cache.arena
        out = arena.buf(name, (batch_size, seq, self.hidden))
        scratch = arena.buf("embed_scratch", (batch_size, seq, self.hidden))
        np.take(model.token_embedding.weight.data, ids, axis=0, out=out)
        # position ids are row-constant, so adding the (seq, H) table
        # broadcast is elementwise-identical to the eager (B, seq, H) gather.
        out += model.position_embedding.weight.data[:seq]
        np.take(model.segment_embedding.weight.data, segments, axis=0, out=scratch)
        out += scratch
        clamped = arena.buf("embed_col_ids", (batch_size, seq), dtype=column_ids.dtype)
        np.minimum(column_ids, self.max_column_id - 1, out=clamped)
        np.take(model.column_embedding.weight.data, clamped, axis=0, out=scratch)
        out += scratch
        norm = model.embedding_norm
        layer_norm_(out, norm.weight.data, norm.bias.data, norm.eps, out=out, scratch=scratch)
        return out

    def _attention_block(
        self,
        block: Any,
        query: np.ndarray,
        kv_input: np.ndarray,
        mask: np.ndarray,
        out: np.ndarray,
        prefix: str,
    ) -> np.ndarray:
        """One transformer block as straight-line numpy into ``out``.

        ``kv_input is query`` is the self-attention (metadata tower) form;
        otherwise the asymmetric cross-attention form over the joint
        sequence. ``out`` may alias ``query`` — the query buffer's last
        read (the first residual add) happens before the first write to
        ``out``.
        """
        arena = self._cache.arena
        attention = block.attention
        batch_size, q_len, hidden = query.shape
        kv_len = kv_input.shape[1]
        heads, head_dim = self.heads, self.head_dim
        q_proj = arena.buf(prefix + "q", (batch_size, q_len, hidden))
        np.matmul(query, attention.query_proj.weight.data, out=q_proj)
        q_proj += attention.query_proj.bias.data
        k_proj = arena.buf(prefix + "k", (batch_size, kv_len, hidden))
        np.matmul(kv_input, attention.key_proj.weight.data, out=k_proj)
        k_proj += attention.key_proj.bias.data
        v_proj = arena.buf(prefix + "v", (batch_size, kv_len, hidden))
        np.matmul(kv_input, attention.value_proj.weight.data, out=v_proj)
        v_proj += attention.value_proj.bias.data
        q_heads = q_proj.reshape(batch_size, q_len, heads, head_dim).swapaxes(1, 2)
        k_heads = k_proj.reshape(batch_size, kv_len, heads, head_dim).swapaxes(1, 2)
        v_heads = v_proj.reshape(batch_size, kv_len, heads, head_dim).swapaxes(1, 2)
        scores = arena.buf(prefix + "scores", (batch_size, heads, q_len, kv_len))
        np.matmul(q_heads, k_heads.swapaxes(2, 3), out=scores)
        scores *= self.scale
        scores += mask
        softmax_(scores, out=scores)
        context = arena.buf(prefix + "context", (batch_size, heads, q_len, head_dim))
        np.matmul(scores, v_heads, out=context)
        merged = arena.buf(prefix + "merged", (batch_size, q_len, hidden))
        np.copyto(merged.reshape(batch_size, q_len, heads, head_dim), context.swapaxes(1, 2))
        attn = arena.buf(prefix + "attn", (batch_size, q_len, hidden))
        np.matmul(merged, attention.output_proj.weight.data, out=attn)
        attn += attention.output_proj.bias.data
        # Fused residual + layer_norm: `merged` is free again and serves
        # as the variance scratch.
        np.add(query, attn, out=attn)
        norm = block.attention_norm
        layer_norm_(attn, norm.weight.data, norm.bias.data, norm.eps, out=attn, scratch=merged)
        ffn = arena.buf(prefix + "ffn", (batch_size, q_len, self.intermediate))
        np.matmul(attn, block.ffn_in.weight.data, out=ffn)
        ffn += block.ffn_in.bias.data
        # Fused bias + GELU, in place in the intermediate buffer.
        gelu_(ffn, out=ffn, scratch=arena.buf(prefix + "ffn_scratch", (batch_size, q_len, self.intermediate)))
        np.matmul(ffn, block.ffn_out.weight.data, out=out)
        out += block.ffn_out.bias.data
        np.add(attn, out, out=out)
        norm = block.ffn_norm
        layer_norm_(out, norm.weight.data, norm.bias.data, norm.eps, out=out, scratch=merged)
        return out

    def _meta_tower(self, model: Any, batch: "Batch") -> list[np.ndarray]:
        batch_size, meta_width = batch.meta_ids.shape
        hidden = self._embed(model, batch.meta_ids, batch.meta_segments, batch.meta_column_ids, "meta_h0")
        mask = additive_attention_mask(batch.meta_mask)
        outputs = [hidden]
        for index, block in enumerate(model.encoder.blocks):
            out = self._cache.arena.buf(f"meta_h{index + 1}", (batch_size, meta_width, self.hidden))
            hidden = self._attention_block(block, hidden, hidden, mask, out, "m_")
            outputs.append(hidden)
        return outputs

    def _classifier(self, features: np.ndarray, head: Any, prefix: str) -> np.ndarray:
        arena = self._cache.arena
        batch_size, num_columns, _ = features.shape
        w1, w2 = head.hidden.weight.data, head.output.weight.data
        hidden = arena.buf(prefix + "cls_hidden", (batch_size, num_columns, w1.shape[1]))
        np.matmul(features, w1, out=hidden)
        hidden += head.hidden.bias.data
        relu_(
            hidden,
            out=hidden,
            scratch=arena.buf(prefix + "cls_mask", (batch_size, num_columns, w1.shape[1]), dtype=np.bool_),
        )
        logits = arena.buf(prefix + "logits", (batch_size, num_columns, w2.shape[1]))
        np.matmul(hidden, w2, out=logits)
        logits += head.output.bias.data
        return logits

    def _replay_phase1(self, model: Any, batch: "Batch") -> tuple[np.ndarray, list[np.ndarray]]:
        meta_layers = self._meta_tower(model, batch)
        batch_size = batch.meta_ids.shape[0]
        num_columns = batch.col_positions.shape[1]
        numeric_dim = batch.numeric.shape[-1]
        pooling = column_pooling_matrix(batch.meta_column_ids, batch.meta_mask, num_columns)
        features = self._cache.arena.buf("p1_features", (batch_size, num_columns, self.hidden + numeric_dim))
        np.matmul(pooling, meta_layers[-1], out=features[..., : self.hidden])
        features[..., self.hidden :] = batch.numeric
        logits = self._classifier(features, model.meta_classifier, "p1_")
        return logits, meta_layers

    def _replay_phase2(self, model: Any, batch: "Batch", cached: "list | None") -> np.ndarray:
        arena = self._cache.arena
        batch_size, meta_width = batch.meta_ids.shape
        content_width = batch.content_ids.shape[1]
        blocks = model.encoder.blocks
        hidden_size, num_layers = self.hidden, len(blocks)
        # The cross-attention KV concatenation is precomputed into one
        # contiguous buffer per layer: metadata latents land in [:M]
        # (straight from latent-cache slices when available), the content
        # stream's running hidden state in [M:].
        kv_bufs = [
            arena.buf(f"kv{i}", (batch_size, meta_width + content_width, hidden_size))
            for i in range(num_layers)
        ]
        if cached is not None:
            for i in range(num_layers):
                dst = kv_bufs[i]
                for row, encoding in enumerate(cached):
                    dst[row, :meta_width] = encoding.layer_outputs[i][0]
            meta_last = arena.buf("meta_last", (batch_size, meta_width, hidden_size))
            for row, encoding in enumerate(cached):
                meta_last[row] = encoding.layer_outputs[num_layers][0]
        else:
            meta_layers = self._meta_tower(model, batch)
            for i in range(num_layers):
                kv_bufs[i][:, :meta_width] = meta_layers[i]
            meta_last = meta_layers[num_layers]
        hidden = self._embed(
            model, batch.content_ids, batch.content_segments, batch.content_column_ids, "content_h_a"
        )
        joint_padding = np.concatenate([batch.meta_mask, batch.content_mask], axis=1)
        joint_mask = additive_attention_mask(joint_padding)
        for index, block in enumerate(blocks):
            kv_bufs[index][:, meta_width:] = hidden
            out_name = "content_h_b" if index % 2 == 0 else "content_h_a"
            out = arena.buf(out_name, (batch_size, content_width, hidden_size))
            hidden = self._attention_block(block, hidden, kv_bufs[index], joint_mask, out, "x_")
        num_columns = batch.col_positions.shape[1]
        numeric_dim = batch.numeric.shape[-1]
        pool_meta = column_pooling_matrix(batch.meta_column_ids, batch.meta_mask, num_columns)
        pool_content = column_pooling_matrix(batch.content_column_ids, batch.content_mask, num_columns)
        features = arena.buf("p2_features", (batch_size, num_columns, 2 * hidden_size + numeric_dim))
        np.matmul(pool_content, hidden, out=features[..., :hidden_size])
        np.matmul(pool_meta, meta_last, out=features[..., hidden_size : 2 * hidden_size])
        features[..., 2 * hidden_size :] = batch.numeric
        return self._classifier(features, model.content_classifier, "p2_")

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
        phase 2: ``logits``) or ``None`` when the caller must fall back to
        the eager forward. A verification mismatch still returns *valid*
        outputs — the eager reference just computed — while retiring the
        batch's shape. The caller holds the cache's replay lock; replay
        and fallback events are appended to ``events`` for the caller to
        count.
        """
        if self.phase == 1:
            shape = batch.meta_ids.shape[1]
            mode = "meta"
        else:
            shape = (batch.meta_ids.shape[1], batch.content_ids.shape[1])
            mode = "cached" if cached is not None else "recompute"
        if shape in self.dead:
            events.append(("fallback", "dead"))
            return None
        try:
            outputs = self._replay(model, batch, cached)
            if (shape, mode) not in self.verified:
                reference = sliced_reference(model, self.phase, batch, cached)
                if not self._matches(outputs, reference):
                    self.dead.add(shape)
                    events.append(("fallback", "verify"))
                    return reference
                self.verified.add((shape, mode))
        except ArenaLimitError:
            events.append(("fallback", "arena_limit"))
            return None
        self.replays += 1
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


class PlanCache:
    """The two :class:`CompiledPlan` objects of one model, phase 1 and 2.

    Both plans replay into the cache's one :class:`Arena`, so the arena
    holds the largest demand per buffer name over every width replayed.
    The cache holds no weights and no metrics registry: replays read the
    model's live parameters, and every replay or fallback is appended to
    the ``events`` list of the call, for the calling
    :class:`~repro.sched.InferenceBatcher` to count into its own
    registry. So several detectors share one cache, each counting its own
    forwards.

    Lock discipline: the replay lock guards the arena and the plans, so
    one replay runs at a time per model and a concurrent one falls back to
    the (bitwise identical) eager forward with reason ``busy``. A replay
    takes no other lock under it; :func:`disable` releases the arena under
    it, after any replay in flight has finished growing it.
    """

    def __init__(self, model: Any, config: CompileConfig) -> None:
        self.config = config
        self.max_width = model.config.encoder.max_seq_len
        self._model_ref = weakref.ref(model)
        self._replay_lock = threading.Lock()
        self.arena = Arena(config.arena_bytes_limit)
        self.plans = {phase: CompiledPlan(phase, self, model.config) for phase in (1, 2)}

    def _run_ctx(
        self, phase: int, batch: "Batch", cached: "list | None", events: "list | None"
    ) -> Iterator[Any]:
        events = events if events is not None else []
        model = self._model_ref()
        width = batch.meta_ids.shape[1]
        if phase == 2:
            width = max(width, batch.content_ids.shape[1])
        reason = None
        if model is None:
            reason = "dead"
        elif width > self.max_width:
            # The eager forward raises its typed error for this width.
            reason = "off_ladder"
        elif not self._replay_lock.acquire(blocking=False):
            # Another thread is mid-replay in the arena; the eager forward
            # is bitwise identical, so just take it.
            reason = "busy"
        if reason is not None:
            events.append(("fallback", reason))
            yield None
            return
        try:
            yield self.plans[phase].run(model, batch, cached, events)
        finally:
            events.append(("arena_bytes", self.arena.bytes))
            self._replay_lock.release()

    @contextmanager
    def phase1(
        self, batch: "Batch", events: "list | None" = None
    ) -> Iterator["tuple[np.ndarray, list[np.ndarray]] | None"]:
        """Compiled phase-1 outputs ``(logits, layer_arrays)`` or ``None``.

        Outputs are arena views, valid only inside the ``with`` block —
        slice/copy per-request results before leaving it. ``events``, when
        given, receives ``("replay", phase)`` and ``("fallback", reason)``
        pairs, and ``("arena_bytes", n)`` with the arena's size once a
        replay ends.
        """
        yield from self._run_ctx(1, batch, None, events)

    @contextmanager
    def phase2(
        self, batch: "Batch", cached: "list | None", events: "list | None" = None
    ) -> Iterator["np.ndarray | None"]:
        """Compiled phase-2 logits or ``None`` (same contract as phase1).

        ``cached`` is the per-request list of latent-cache encodings when
        *all* requests have width-usable entries, else ``None`` (the plan
        then recomputes the metadata tower, like the eager path).
        """
        yield from self._run_ctx(2, batch, cached, events)


# ----------------------------------------------------------------------
# Module-level registry: model -> PlanCache.
#
# Weak keys, so a cache never outlives (or pins) its model, and nothing
# is stored on the model itself — models stay deep-copyable and
# serializable exactly as before.
# ----------------------------------------------------------------------
_CACHES: "weakref.WeakKeyDictionary[Any, PlanCache]" = weakref.WeakKeyDictionary()
_CACHES_LOCK = threading.Lock()


def enable(model: Any, config: CompileConfig | None = None) -> PlanCache | None:
    """Attach (or reuse) a plan cache for ``model``; returns it.

    An existing cache is reused when its config matches, so every
    detector on one model shares one pair of plans, whatever registry it
    counts into. ``config.enabled=False`` detaches any cache (same as
    :func:`disable`).
    """
    config = config if config is not None else CompileConfig()
    if not config.enabled:
        disable(model)
        return None
    with _CACHES_LOCK:
        cache = _CACHES.get(model)
        if cache is None or cache.config != config:
            cache = _CACHES[model] = PlanCache(model, config)
    return cache


def disable(model: Any) -> None:
    """Detach ``model``'s plan cache and release its arena.

    Forwards go back to eager. The arena is released under the replay
    lock, so a replay in flight finishes growing it first and strands no
    bytes.
    """
    with _CACHES_LOCK:
        cache = _CACHES.pop(model, None)
    if cache is not None:
        with cache._replay_lock:
            cache.arena.release()


def plan_cache(model: Any) -> PlanCache | None:
    """The live :class:`PlanCache` for ``model``, if compilation is on."""
    with _CACHES_LOCK:
        return _CACHES.get(model)
