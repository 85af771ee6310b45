"""Masked-language-model pre-training of the shared encoder (Sec. 4.2.1).

The paper initializes the towers from a checkpoint pre-trained on an
unlabeled Wikipedia table corpus with MLM (+ Masked Entity Recovery). Here
the shared Transformer blocks are pre-trained with MLM over the joint
metadata+content token stream of unlabeled tables, after which
:func:`repro.core.training.fine_tune` adapts the whole model to the
detection task — the same pre-train -> fine-tune paradigm.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..datagen.tables import Table
from ..features.encoding import Featurizer, collate
from .adtd import ADTDModel
from .training import encode_training_tables

__all__ = ["PretrainConfig", "PretrainHistory", "pretrain_mlm"]


@dataclass(frozen=True)
class PretrainConfig:
    """MLM pre-training hyper-parameters (BERT-style 80/10/10 masking)."""

    epochs: int = 3
    batch_size: int = 8
    learning_rate: float = 1e-3
    mask_prob: float = 0.15
    grad_clip: float = 1.0
    seed: int = 0


@dataclass
class PretrainHistory:
    epoch_losses: list[float] = field(default_factory=list)
    seconds: float = 0.0


def _apply_mlm_mask(
    token_ids: np.ndarray,
    padding_mask: np.ndarray,
    vocab_size: int,
    mask_id: int,
    num_special: int,
    mask_prob: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(corrupted_ids, targets, loss_mask)``.

    Only non-padding, non-special tokens are candidates. 80% of selected
    positions become ``[MASK]``, 10% a random token, 10% stay unchanged.
    """
    candidates = padding_mask & (token_ids >= num_special)
    selected = candidates & (rng.random(token_ids.shape) < mask_prob)
    corrupted = token_ids.copy()
    roll = rng.random(token_ids.shape)
    mask_positions = selected & (roll < 0.8)
    random_positions = selected & (roll >= 0.8) & (roll < 0.9)
    corrupted[mask_positions] = mask_id
    random_ids = rng.integers(num_special, vocab_size, token_ids.shape)
    corrupted[random_positions] = random_ids[random_positions]
    return corrupted, token_ids, selected.astype(np.float32)


def pretrain_mlm(
    model: ADTDModel,
    featurizer: Featurizer,
    tables: list[Table],
    config: PretrainConfig | None = None,
) -> PretrainHistory:
    """Pre-train the embedding + encoder with MLM over unlabeled tables."""
    config = config or PretrainConfig()
    rng = np.random.default_rng(config.seed)
    encoded = encode_training_tables(featurizer, tables)
    if not encoded:
        raise ValueError("no tables to pre-train on")

    vocab = featurizer.tokenizer.vocab
    optimizer = nn.Adam(model.parameters(), lr=config.learning_rate)

    history = PretrainHistory()
    started = time.perf_counter()
    model.train()
    for _ in range(config.epochs):
        order = rng.permutation(len(encoded))
        epoch_loss, batches = 0.0, 0
        for start in range(0, len(order), config.batch_size):
            batch_tables = [encoded[int(i)] for i in order[start : start + config.batch_size]]
            batch = collate(batch_tables)
            # Joint stream: metadata tokens followed by content tokens.
            token_ids = np.concatenate([batch.meta_ids, batch.content_ids], axis=1)
            segments = np.concatenate([batch.meta_segments, batch.content_segments], axis=1)
            column_ids = np.concatenate(
                [batch.meta_column_ids, batch.content_column_ids], axis=1
            )
            padding = np.concatenate([batch.meta_mask, batch.content_mask], axis=1)

            corrupted, targets, loss_mask = _apply_mlm_mask(
                token_ids,
                padding,
                vocab_size=len(vocab),
                mask_id=vocab.mask_id,
                num_special=vocab.num_special,
                mask_prob=config.mask_prob,
                rng=rng,
            )
            logits = model.mlm_logits(corrupted, segments, column_ids, padding)
            loss = nn.masked_cross_entropy(logits, targets, loss_mask)
            model.zero_grad()
            loss.backward()
            nn.clip_grad_norm(model.parameters(), config.grad_clip)
            optimizer.step()
            epoch_loss += loss.item()
            batches += 1
        history.epoch_losses.append(epoch_loss / batches)
    history.seconds = time.perf_counter() - started
    model.eval()
    return history
