"""Single-tower content-based detector — the TURL/Doduo model family.

Both baselines encode one joint token stream (table metadata + per-column
metadata + per-column content) with a stack of self-attention blocks, pool
a representation per column, and classify. They differ in:

* **visibility** — TURL restricts attention with a visibility matrix (a
  cell only attends to table-level tokens and its own column); Doduo mixes
  everything and uses full attention;
* **size** — Doduo uses a larger encoder (BERT-base vs TinyBERT in the
  paper), which is why it is slower end to end.

Neither uses the non-textual statistics vector — that (plus the two-phase
design) is TASTE's advantage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from ..core.classifier import ClassifierHead
from ..features.encoding import Batch
from ..features.metadata_features import SEGMENT_TABLE
from ..nn import functional as F

__all__ = ["SingleTowerConfig", "SingleTowerModel", "joint_stream", "visibility_mask"]

_NUM_SEGMENTS = 3


@dataclass(frozen=True)
class SingleTowerConfig:
    """Hyper-parameters of a single-tower baseline."""

    encoder: nn.EncoderConfig
    num_labels: int
    classifier_hidden: int = 128
    max_column_id: int = 64
    column_visibility: bool = False  # True = TURL-style visibility matrix


def joint_stream(batch: Batch) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate metadata and content streams of a batch.

    Returns ``(token_ids, segment_ids, column_ids, padding_mask)``, each of
    shape ``(B, M + T)``.
    """
    token_ids = np.concatenate([batch.meta_ids, batch.content_ids], axis=1)
    segments = np.concatenate([batch.meta_segments, batch.content_segments], axis=1)
    column_ids = np.concatenate([batch.meta_column_ids, batch.content_column_ids], axis=1)
    padding = np.concatenate([batch.meta_mask, batch.content_mask], axis=1)
    return token_ids, segments, column_ids, padding


def visibility_mask(
    segments: np.ndarray, column_ids: np.ndarray, padding: np.ndarray
) -> np.ndarray:
    """TURL-style additive attention mask ``(B, 1, T, T)``.

    Token ``i`` may attend to token ``j`` iff ``j`` is a real token and
    either ``j`` belongs to the table-level segment or ``i`` and ``j``
    belong to the same column.
    """
    same_column = column_ids[:, :, None] == column_ids[:, None, :]
    table_level = (segments == SEGMENT_TABLE)[:, None, :]
    visible = (same_column | table_level) & padding[:, None, :]
    return np.where(visible, 0.0, -1e9).astype(np.float32)[:, None, :, :]


class SingleTowerModel(nn.Module):
    """One-shot semantic type detector over the joint token stream."""

    def __init__(self, config: SingleTowerConfig, seed: int = 0) -> None:
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
        self.encoder = nn.TransformerEncoder(enc, rng)
        self.classifier = ClassifierHead(
            enc.hidden_size, config.classifier_hidden, config.num_labels, rng
        )

    def forward(self, batch: Batch) -> nn.Tensor:
        """Logits of shape ``(B, C, num_labels)``."""
        token_ids, segments, column_ids, padding = joint_stream(batch)
        seq_len = token_ids.shape[1]
        if seq_len > self.config.encoder.max_seq_len:
            raise ValueError(
                f"sequence length {seq_len} exceeds max_seq_len "
                f"{self.config.encoder.max_seq_len}"
            )
        positions = np.broadcast_to(np.arange(seq_len), token_ids.shape)
        clipped_ids = np.minimum(column_ids, self.config.max_column_id - 1)
        hidden = (
            self.token_embedding(token_ids)
            + self.position_embedding(positions)
            + self.segment_embedding(segments)
            + self.column_embedding(clipped_ids)
        )
        hidden = self.embedding_dropout(self.embedding_norm(hidden))

        if self.config.column_visibility:
            mask = visibility_mask(segments, column_ids, padding)
        else:
            mask = F.additive_attention_mask(padding)
        encoded = self.encoder(hidden, attention_mask=mask)

        num_columns = batch.col_positions.shape[1]
        pooling = nn.Tensor(F.column_pooling_matrix(column_ids, padding, num_columns))
        return self.classifier(pooling @ encoded)
