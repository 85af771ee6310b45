"""The Asymmetric Double-Tower Detection (ADTD) model (paper Sec. 4).

Two logical towers share one stack of Transformer blocks:

* **metadata tower** — plain self-attention over the metadata token
  sequence; its per-layer outputs ``Encode_i^{M_t}`` feed the latent cache.
* **content tower** — at layer ``i`` the query is the content stream's
  previous latent ``Encode_{i-1}^{D}`` while key/value are the
  *concatenation* ``Encode_{i-1}^{M_t} ⊕ Encode_{i-1}^{D}``. The dependency
  is asymmetric: content attends to metadata, never the reverse, which is
  what makes the cached metadata latents reusable in Phase 2.

Column representations are read at each column's ``[COL]`` (metadata) and
``[VAL]`` (content) marker positions and fed to the classifier heads
together with the non-textual features ``M_n``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from ..features.encoding import Batch
from ..features.metadata_features import NUMERIC_FEATURE_DIM
from ..nn import functional as F
from .classifier import ClassifierHead

__all__ = ["ADTDConfig", "ADTDModel", "gather_positions"]

_NUM_SEGMENTS = 3  # table metadata / column metadata / content


@dataclass(frozen=True)
class ADTDConfig:
    """Hyper-parameters of the ADTD model.

    ``encoder`` carries the paper's L/A/H/I/W_max; the classifier hidden
    sizes default to a CPU-trainable scale of the paper's 500/1000.
    """

    encoder: nn.EncoderConfig
    num_labels: int
    numeric_dim: int = NUMERIC_FEATURE_DIM
    meta_classifier_hidden: int = 64
    content_classifier_hidden: int = 128
    max_column_id: int = 64


class ADTDModel(nn.Module):
    """Multi-task double-tower semantic type detector."""

    def __init__(self, config: ADTDConfig, seed: int = 0) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.config = config
        enc = config.encoder

        self.token_embedding = nn.Embedding(enc.vocab_size, enc.hidden_size, rng)
        self.position_embedding = nn.Embedding(enc.max_seq_len, enc.hidden_size, rng)
        self.segment_embedding = nn.Embedding(_NUM_SEGMENTS, enc.hidden_size, rng)
        self.column_embedding = nn.Embedding(config.max_column_id, enc.hidden_size, rng)
        self.embedding_norm = nn.LayerNorm(enc.hidden_size)
        self.embedding_dropout = nn.Dropout(enc.dropout_p, rng)

        # One stack of blocks, shared by both towers (paper Sec. 4.2).
        self.encoder = nn.TransformerEncoder(enc, rng)

        self.meta_classifier = ClassifierHead(
            enc.hidden_size + config.numeric_dim,
            config.meta_classifier_hidden,
            config.num_labels,
            rng,
        )
        self.content_classifier = ClassifierHead(
            2 * enc.hidden_size + config.numeric_dim,
            config.content_classifier_hidden,
            config.num_labels,
            rng,
        )
        self.mlm_head = nn.Linear(enc.hidden_size, enc.vocab_size, rng)
        self.task_loss = nn.AutomaticWeightedLoss(2)

    # ------------------------------------------------------------------
    # Embedding
    # ------------------------------------------------------------------
    def embed(
        self, token_ids: np.ndarray, segment_ids: np.ndarray, column_ids: np.ndarray
    ) -> nn.Tensor:
        """Sum token/position/segment/column embeddings, normalize, drop."""
        seq_len = token_ids.shape[1]
        if seq_len > self.config.encoder.max_seq_len:
            raise ValueError(
                f"sequence length {seq_len} exceeds max_seq_len "
                f"{self.config.encoder.max_seq_len}"
            )
        positions = np.broadcast_to(np.arange(seq_len), token_ids.shape)
        column_ids = np.minimum(column_ids, self.config.max_column_id - 1)
        hidden = (
            self.token_embedding(token_ids)
            + self.position_embedding(positions)
            + self.segment_embedding(segment_ids)
            + self.column_embedding(column_ids)
        )
        return self.embedding_dropout(self.embedding_norm(hidden))

    # ------------------------------------------------------------------
    # Towers
    # ------------------------------------------------------------------
    def encode_metadata(self, batch: Batch) -> list[nn.Tensor]:
        """Run the metadata tower; returns per-layer outputs.

        Index ``i`` of the result is ``Encode_i^{M_t}`` (index 0 being the
        embedding output) — exactly what the latent cache stores.
        """
        hidden = self.embed(batch.meta_ids, batch.meta_segments, batch.meta_column_ids)
        mask = F.additive_attention_mask(batch.meta_mask)
        return self.encoder.forward_with_layer_outputs(hidden, attention_mask=mask)

    def encode_content(
        self, batch: Batch, meta_layers: list[nn.Tensor]
    ) -> nn.Tensor:
        """Run the content tower against (possibly cached) metadata latents.

        Layer ``i`` computes ``T_i(Q=content, K=V=meta_{i-1} ⊕ content)``
        with the same block parameters as the metadata tower.
        """
        hidden = self.embed(
            batch.content_ids, batch.content_segments, batch.content_column_ids
        )
        joint_padding = np.concatenate([batch.meta_mask, batch.content_mask], axis=1)
        joint_mask = F.additive_attention_mask(joint_padding)
        for index, block in enumerate(self.encoder.blocks):
            kv_states = nn.Tensor.cat([meta_layers[index], hidden], axis=1)
            hidden = block(hidden, kv_states, attention_mask=joint_mask)
        return hidden

    # ------------------------------------------------------------------
    # Task heads
    # ------------------------------------------------------------------
    def meta_logits(
        self, batch: Batch, meta_layers: list[nn.Tensor]
    ) -> nn.Tensor:
        """Phase-1 logits: ``Classify_meta(Encode_L^{M_t} ⊕ M_n)``."""
        col_repr = self._pool_columns(
            meta_layers[-1], batch.meta_column_ids, batch.meta_mask, batch
        )
        features = nn.Tensor.cat([col_repr, nn.Tensor(batch.numeric)], axis=-1)
        return self.meta_classifier(features)

    def content_logits(
        self, batch: Batch, meta_layers: list[nn.Tensor], content_hidden: nn.Tensor
    ) -> nn.Tensor:
        """Phase-2 logits: ``Classify_cont(Encode_L^{D} ⊕ Encode_L^{M_t} ⊕ M_n)``.

        Rows of columns whose content was never fetched get a zero content
        representation and meaningless logits; callers must only read rows
        with content (``val_positions >= 0``).
        """
        meta_repr = self._pool_columns(
            meta_layers[-1], batch.meta_column_ids, batch.meta_mask, batch
        )
        content_repr = self._pool_columns(
            content_hidden, batch.content_column_ids, batch.content_mask, batch
        )
        features = nn.Tensor.cat(
            [content_repr, meta_repr, nn.Tensor(batch.numeric)], axis=-1
        )
        return self.content_classifier(features)

    def _pool_columns(
        self,
        hidden: nn.Tensor,
        column_ids: np.ndarray,
        padding_mask: np.ndarray,
        batch: Batch,
    ) -> nn.Tensor:
        """Masked mean of each column's token span -> ``(B, C, H)``.

        A column's representation is the average of its segment's latent
        vectors (its ``[COL]``/``[VAL]`` marker plus its name/comment or
        cell tokens). Mean pooling feeds token content to the classifiers
        directly from step one, while attention supplies cross-column and
        table context — the role split the baselines use as well.
        """
        num_columns = batch.col_positions.shape[1]
        pooling = nn.Tensor(F.column_pooling_matrix(column_ids, padding_mask, num_columns))
        return pooling @ hidden

    def forward(self, batch: Batch) -> tuple[nn.Tensor, nn.Tensor]:
        """Full double-tower pass: ``(meta_logits, content_logits)``."""
        meta_layers = self.encode_metadata(batch)
        content_hidden = self.encode_content(batch, meta_layers)
        return (
            self.meta_logits(batch, meta_layers),
            self.content_logits(batch, meta_layers, content_hidden),
        )

    # ------------------------------------------------------------------
    # Pre-training head
    # ------------------------------------------------------------------
    def mlm_logits(
        self,
        token_ids: np.ndarray,
        segment_ids: np.ndarray,
        column_ids: np.ndarray,
        padding_mask: np.ndarray,
    ) -> nn.Tensor:
        """Masked-language-model logits over an arbitrary token stream."""
        hidden = self.embed(token_ids, segment_ids, column_ids)
        mask = F.additive_attention_mask(padding_mask)
        encoded = self.encoder(hidden, attention_mask=mask)
        return self.mlm_head(encoded)


def gather_positions(hidden: nn.Tensor, positions: np.ndarray) -> nn.Tensor:
    """Gather ``hidden[b, positions[b, c], :]`` -> ``(B, C, H)``.

    Negative positions (padding / absent content) are clamped to 0; callers
    mask those rows out downstream.
    """
    safe = np.maximum(positions, 0)
    rows = np.arange(hidden.shape[0])[:, None]
    return hidden[rows, safe]
