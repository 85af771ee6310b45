"""Compiled inference for the ADTD no-grad hot path.

The detector's S2 stage is pure model compute, and the eager forward pays
per-op Python dispatch and ``Tensor`` wrapping on every call. This module
trades that overhead for **replays** of a hand-written plan:

* A model has exactly two :class:`CompiledPlan` objects, one per phase
  (:func:`plan_cache`). Replays are straight-line numpy — zero
  ``Tensor``/autograd objects on the hot path — over the parameters of
  the model they are handed, read afresh on every replay, and take every
  shape from the encodings, so one plan serves every table and every
  weight version.
* A replay reads its tables' encodings
  (:class:`~repro.features.encoding.EncodedTable`) as they are and
  computes every table at its own real widths, with nothing padded and no
  attention mask. The token arrays of all rows are concatenated into one
  packed ``(N, H)`` stream per tower, on which the token-wise ops
  (embedding, the Q/K/V/output projections, the FFN, layer norm, GELU)
  run once; the attention core and the column pooling run per row, at
  that row's real lengths. Only the classifier input is zero-padded on its
  column axis, to ``(B, max(C_max, 2), D)``.
* A replay allocates its own buffers and writes them through the shared
  ``out=`` kernels in :mod:`repro.nn.functional` (``softmax_`` in place
  in the attention scores, fused residual+``layer_norm_``, fused
  bias+``gelu_``). It returns arrays the caller owns and takes no lock,
  so several loops on one model (a ``detect()`` beside a service) all
  replay at once.
* The asymmetric cross-attention's K/V input is fed directly from the
  latents Phase 1 kept for the chunk
  (:class:`~repro.core.latent_cache.CachedEncoding`), row by row.

Bitwise safety
--------------
The reference is the eager no-grad forward of each table alone, at its
real widths, which the caller of :meth:`CompiledPlan.run` supplies
(:func:`repro.sched.forward.eager_forward`): the autograd model at one
row, where the padding mask is all zeros. Replays equal it bit for bit:

1. Replays call the *same* raw-ndarray kernels the autograd ops compute
   their forwards with (``softmax_``/``layer_norm_``/``gelu_``/``relu_``),
   and every remaining op is the identical ufunc/GEMM on the same live weight
   arrays. Per-row ops (attention, pooling) run at the reference's exact
   shapes. A packed token-wise GEMM relies on the BLAS computing each
   row of a product independently of the rows around it, which OpenBLAS
   does for every product of two or more rows at the model's widths on
   the cores measured (DESIGN §5d-bis). A one-row product takes another
   kernel path, so a one-token row is multiplied on its own, as in its
   reference. Each plan checks row independence once for its model's
   GEMM shapes (:func:`packs_exactly`); a BLAS that fails it gets every
   token-wise GEMM row by row instead.
2. The first replay of each row **key** — the real metadata length, or
   the ``(metadata, content)`` lengths, and the latent mode — is verified
   against that row's eager reference, bit for bit. A mismatch retires
   the key (its rows are answered by their eager reference from then on,
   counted under ``nn.compile.fallbacks{reason=verify|dead}``).

Plans are looked up via a module-level weak registry (never stored on
the model, so models stay picklable/deep-copyable). A row over the
encoder's ``max_seq_len`` sends its forward to the eager path, which
raises the encoder's typed error. The detector's
:class:`~repro.sched.InferenceBatcher` looks the plans up once per run,
and only when its own ``compile.enabled`` is set: a detector with
compilation off runs eager and leaves the plans of other detectors on the
same model alone. The batcher also counts the replays and fallbacks of
its own forwards, so plans shared by several detectors never report into
one detector's registry for another.
"""

from __future__ import annotations

import functools
import threading
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from .functional import (
    column_pooling_matrix,
    gelu_,
    layer_norm_,
    relu_,
    softmax_,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..features.encoding import EncodedTable

__all__ = [
    "CompileConfig",
    "CompiledPlan",
    "packs_exactly",
    "plan_cache",
]


@dataclass(frozen=True)
class CompileConfig:
    """Whether a detector's forwards replay compiled plans
    (``DetectorConfig.compile``); ``enabled=False`` is the eager ablation."""

    enabled: bool = True


@functools.lru_cache(maxsize=None)
def packs_exactly(shapes: tuple[tuple[int, int], ...]) -> bool:
    """Whether this process's BLAS computes every row of a float32
    ``(M, K) @ (K, N)`` product alike for every ``M >= 2``, at each
    ``(K, N)`` of ``shapes``: rows 2 to 1024 long, at unaligned offsets,
    against the same rows of a 2048-row product."""
    rng = np.random.default_rng(0)
    for k, n in shapes:
        x = rng.standard_normal((2048, k), dtype=np.float32)
        weight = rng.standard_normal((k, n), dtype=np.float32)
        whole = x @ weight
        for start, stop in ((1, 3), (3, 6), (6, 22), (22, 86), (86, 341), (341, 1365)):
            if (x[start:stop] @ weight).tobytes() != whole[start:stop].tobytes():
                return False
    return True


class _Rows:
    """Where each row's tokens sit in a packed ``(N, H)`` matrix."""

    def __init__(self, lengths: np.ndarray) -> None:
        ends = np.cumsum(lengths)
        self.lengths = lengths
        self.spans = [slice(int(end - n), int(end)) for end, n in zip(ends, lengths)]
        self.singles = [span for span in self.spans if span.stop - span.start == 1]


class _Stream:
    """One token stream of several tables (their metadata or their
    content tokens), concatenated row after row."""

    def __init__(self, tokens: list) -> None:
        lengths = np.array([len(row.token_ids) for row in tokens], dtype=np.int64)
        self.ids = np.concatenate([row.token_ids for row in tokens])
        self.segments = np.concatenate([row.segment_ids for row in tokens])
        self.column_ids = np.concatenate([row.column_ids for row in tokens])
        self.positions = np.concatenate([np.arange(n) for n in lengths])
        self.rows = _Rows(lengths)


class CompiledPlan:
    """The replay program of one phase, for every table.

    A plan holds no weights and no buffers: every replay reads the
    parameters of the ``model`` that :meth:`run` is handed, so an in-place
    update, an optimiser step or a ``load_state_dict`` reaches the next
    replay, and it writes into arrays it allocates itself and hands back.
    Replays on one plan may therefore run on several threads at once.

    The safety state is kept per row *key* — the real metadata length
    (phase 1) or the ``(metadata, content)`` lengths (phase 2), with the
    latent mode: ``verified`` holds the keys checked against the eager
    forward, and ``dead`` the keys that disagreed with it and are answered
    eagerly from then on. It is per key and not per weight version because
    the replay and the eager forward run the same op sequence on the same
    live arrays: the values they read cannot make them part, while the
    lengths pick the kernels (and their blocking) that could. Two first
    replays of one key at once both verify; each records the same outcome.
    """

    def __init__(self, phase: int, config: Any) -> None:
        self.phase = phase
        self.verified: set[tuple] = set()
        self.dead: set[tuple] = set()
        encoder_config = config.encoder
        self.max_width = encoder_config.max_seq_len
        self.hidden = encoder_config.hidden_size
        self.heads = encoder_config.num_heads
        self.head_dim = self.hidden // self.heads
        intermediate = encoder_config.intermediate_size
        self.packs = packs_exactly(
            ((self.hidden, self.hidden), (self.hidden, intermediate), (intermediate, self.hidden))
        )
        # Matches the eager `* (1.0 / np.sqrt(head_dim))`: Tensor coerces
        # the float64 scalar to float32 before multiplying, so do we.
        self.scale = np.asarray(1.0 / np.sqrt(self.head_dim), dtype=np.float32)
        self.max_column_id = config.max_column_id

    # ------------------------------------------------------------------
    # Replay kernels
    # ------------------------------------------------------------------
    def _linear(self, x: np.ndarray, layer: Any, rows: _Rows) -> np.ndarray:
        """``x @ W + b`` over packed token rows, each row's bits those of
        its own forward."""
        weight = layer.weight.data
        out = np.empty((x.shape[0], weight.shape[1]), np.float32)
        if self.packs:
            np.matmul(x, weight, out=out)
            # A one-token row's own forward is a one-row product, which
            # BLAS computes along another path than a row of a larger one.
            redo = rows.singles
        else:
            redo = rows.spans
        for span in redo:
            np.matmul(x[span], weight, out=out[span])
        out += layer.bias.data
        return out

    def _embed(self, model: Any, stream: _Stream) -> np.ndarray:
        out = np.take(model.token_embedding.weight.data, stream.ids, axis=0)
        scratch = np.take(model.position_embedding.weight.data, stream.positions, axis=0)
        out += scratch
        np.take(model.segment_embedding.weight.data, stream.segments, axis=0, out=scratch)
        out += scratch
        clamped = np.minimum(stream.column_ids, self.max_column_id - 1)
        np.take(model.column_embedding.weight.data, clamped, axis=0, out=scratch)
        out += scratch
        norm = model.embedding_norm
        layer_norm_(out, norm.weight.data, norm.bias.data, norm.eps, out=out, scratch=scratch)
        return out

    def _attention_block(
        self, block: Any, query: np.ndarray, rows: _Rows, kv_input: np.ndarray, kv_rows: _Rows
    ) -> np.ndarray:
        """One transformer block as straight-line numpy over packed rows.

        ``kv_input is query`` is the self-attention (metadata tower) form;
        otherwise the asymmetric cross-attention form over each row's
        joint sequence, packed in ``kv_rows``.
        """
        attention = block.attention
        heads, head_dim = self.heads, self.head_dim
        q_proj = self._linear(query, attention.query_proj, rows)
        k_proj = self._linear(kv_input, attention.key_proj, kv_rows)
        v_proj = self._linear(kv_input, attention.value_proj, kv_rows)
        merged = np.empty_like(query)
        for span, kv_span, q_len, kv_len in zip(rows.spans, kv_rows.spans, rows.lengths, kv_rows.lengths):
            if not q_len:
                continue
            q_heads = q_proj[span].reshape(q_len, heads, head_dim).swapaxes(0, 1)
            k_heads = k_proj[kv_span].reshape(kv_len, heads, head_dim).swapaxes(0, 1)
            v_heads = v_proj[kv_span].reshape(kv_len, heads, head_dim).swapaxes(0, 1)
            scores = np.matmul(q_heads, k_heads.swapaxes(1, 2))
            scores *= self.scale
            softmax_(scores, out=scores)
            merged[span].reshape(q_len, heads, head_dim)[...] = np.matmul(scores, v_heads).swapaxes(0, 1)
        attn = self._linear(merged, attention.output_proj, rows)
        # Fused residual + layer_norm: `merged` is free again and serves
        # as the variance scratch.
        np.add(query, attn, out=attn)
        norm = block.attention_norm
        layer_norm_(attn, norm.weight.data, norm.bias.data, norm.eps, out=attn, scratch=merged)
        ffn = self._linear(attn, block.ffn_in, rows)
        # Fused bias + GELU, in place in the intermediate buffer.
        gelu_(ffn, out=ffn)
        out = self._linear(ffn, block.ffn_out, rows)
        np.add(attn, out, out=out)
        norm = block.ffn_norm
        layer_norm_(out, norm.weight.data, norm.bias.data, norm.eps, out=out, scratch=merged)
        return out

    def _meta_tower(self, model: Any, stream: _Stream) -> list[np.ndarray]:
        hidden = self._embed(model, stream)
        outputs = [hidden]
        for block in model.encoder.blocks:
            hidden = self._attention_block(block, hidden, stream.rows, hidden, stream.rows)
            outputs.append(hidden)
        return outputs

    def _features(self, encoded: "list[EncodedTable]", pooled: int) -> np.ndarray:
        """The classifier input, ``(B, max(C_max, 2), pooled + F)``:
        ``pooled`` zeros per column, then its numeric features; padded
        columns are all zeros."""
        columns = max(max(table.num_columns for table in encoded), 2)
        numeric_dim = encoded[0].numeric.shape[1]
        features = np.zeros((len(encoded), columns, pooled + numeric_dim), np.float32)
        for row, table in enumerate(encoded):
            features[row, : table.num_columns, pooled:] = table.numeric
        return features

    def _pool(
        self, features: np.ndarray, offset: int, stream: _Stream, hidden: np.ndarray,
        num_columns: list[int],
    ) -> None:
        """Mean-pool each row's column spans into ``features[row, :, offset:]``,
        at the column width ``collate`` gives the row's table alone."""
        for row, span in enumerate(stream.rows.spans):
            columns = max(num_columns[row], 2)
            column_ids = stream.column_ids[span][None]
            pooling = column_pooling_matrix(column_ids, np.ones_like(column_ids, bool), columns)
            np.matmul(pooling[0], hidden[span], out=features[row, :columns, offset : offset + self.hidden])

    def _classifier(self, features: np.ndarray, head: Any) -> np.ndarray:
        hidden = np.matmul(features, head.hidden.weight.data)
        hidden += head.hidden.bias.data
        relu_(hidden, out=hidden)
        logits = np.matmul(hidden, head.output.weight.data)
        logits += head.output.bias.data
        return logits

    def _replay_phase1(self, model: Any, encoded: "list[EncodedTable]", cached: None) -> list:
        meta = _Stream([table.meta for table in encoded])
        layers = self._meta_tower(model, meta)
        num_columns = [table.num_columns for table in encoded]
        features = self._features(encoded, self.hidden)
        self._pool(features, 0, meta, layers[-1], num_columns)
        logits = self._classifier(features, model.meta_classifier)
        return [
            (logits[row, :columns], [layer[span] for layer in layers])
            for row, (span, columns) in enumerate(zip(meta.rows.spans, num_columns))
        ]

    def _replay_phase2(self, model: Any, encoded: "list[EncodedTable]", cached: list) -> list:
        meta = _Stream([table.meta for table in encoded])
        content = _Stream([table.content for table in encoded])
        # The metadata tower runs only for the rows without kept latents.
        missing = [row for row, encoding in enumerate(cached) if encoding is None]
        if missing:
            recompute = _Stream([encoded[row].meta for row in missing])
            tower = self._meta_tower(model, recompute)
            spans = dict(zip(missing, recompute.rows.spans))

        def meta_layer(index: int, row: int) -> np.ndarray:
            if cached[row] is not None:
                return cached[row].layer_outputs[index][0]
            return tower[index][spans[row]]

        kv_rows = _Rows(meta.rows.lengths + content.rows.lengths)
        hidden = self._embed(model, content)
        blocks = model.encoder.blocks
        for index, block in enumerate(blocks):
            kv_input = np.concatenate(
                [
                    part
                    for row, span in enumerate(content.rows.spans)
                    for part in (meta_layer(index, row), hidden[span])
                ]
            )
            hidden = self._attention_block(block, hidden, content.rows, kv_input, kv_rows)
        num_columns = [table.num_columns for table in encoded]
        features = self._features(encoded, 2 * self.hidden)
        self._pool(features, 0, content, hidden, num_columns)
        meta_last = np.concatenate([meta_layer(len(blocks), row) for row in range(len(encoded))])
        self._pool(features, self.hidden, meta, meta_last, num_columns)
        logits = self._classifier(features, model.content_classifier)
        return [logits[row, :columns] for row, columns in enumerate(num_columns)]

    def _matches(self, outputs: Any, reference: Any) -> bool:
        if self.phase == 1:
            outputs, reference = [outputs[0], *outputs[1]], [reference[0], *reference[1]]
        else:
            outputs, reference = [outputs], [reference]
        return all(a.tobytes() == b.tobytes() for a, b in zip(outputs, reference))

    # ------------------------------------------------------------------
    def run(
        self,
        model: Any,
        encoded: "list[EncodedTable]",
        cached: "list | None",
        events: list,
        reference: Callable[["EncodedTable", Any], Any],
    ) -> Any:
        """Replay ``encoded``, one row per table, and verify the rows of
        first-time keys.

        Returns one output per row, which the caller owns (phase 1:
        ``(logits, layer_arrays)``, phase 2: ``logits``, each at the row's
        real widths and column count), or ``None`` when a row is over
        ``max_seq_len`` and the caller must run the eager forward. A row
        whose key fails its verification, or was retired before, is
        answered by its eager reference, ``reference(encoded[row],
        cached[row])`` (phase 1: ``reference(encoded[row], None)``).
        ``cached`` is the per-row list of latent-cache encodings (``None``
        entries recompute that row's metadata tower, like the eager path);
        phase 1 takes ``None``. ``("replay", phase)`` and ``("fallback",
        reason)`` events are appended to ``events`` for the caller to
        count.
        """
        meta_lengths = [len(table.meta.token_ids) for table in encoded]
        if self.phase == 1:
            cached = [None] * len(encoded)
            keys = [(meta, "meta") for meta in meta_lengths]
            longest = max(meta_lengths)
        else:
            content_lengths = [len(table.content.token_ids) for table in encoded]
            keys = [
                (meta, content, "recompute" if encoding is None else "cached")
                for meta, content, encoding in zip(meta_lengths, content_lengths, cached)
            ]
            longest = max(*meta_lengths, *content_lengths)
        if longest > self.max_width:
            # The eager forward raises its typed error for this width.
            events.append(("fallback", "too_long"))
            return None
        replay = self._replay_phase1 if self.phase == 1 else self._replay_phase2
        outputs = replay(model, encoded, cached)
        for row, key in enumerate(keys):
            if key in self.verified:
                continue
            expected = reference(encoded[row], cached[row])
            if key not in self.dead and self._matches(outputs[row], expected):
                self.verified.add(key)
                continue
            events.append(("fallback", "dead" if key in self.dead else "verify"))
            self.dead.add(key)
            outputs[row] = expected
        events.append(("replay", self.phase))
        return outputs


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
    model, so a key one detector verified (or retired) is verified (or
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
