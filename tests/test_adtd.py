"""Tests for the ADTD model: towers, pooling, latent-cache equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.core import ADTDConfig, ADTDModel
from repro.core.adtd import gather_positions
from repro.nn.functional import column_pooling_matrix
from repro.features import collate


@pytest.fixture()
def batch(featurizer, tiny_corpus):
    encoded = [featurizer.encode_offline(t) for t in tiny_corpus.tables[:3]]
    return collate(encoded)


@pytest.fixture()
def meta_only_batch(featurizer, tiny_corpus):
    encoded = [
        featurizer.encode_offline(t, with_content=False)
        for t in tiny_corpus.tables[:3]
    ]
    return collate(encoded)


class TestColumnPooling:
    def test_rows_sum_to_one_for_populated_columns(self):
        column_ids = np.array([[0, 1, 1, 2, 0]])
        mask = np.array([[True, True, True, True, False]])
        pooling = column_pooling_matrix(column_ids, mask, num_columns=3)
        assert pooling.shape == (1, 3, 5)
        assert pooling[0, 0].sum() == pytest.approx(1.0)  # column 1: two tokens
        assert pooling[0, 1].sum() == pytest.approx(1.0)  # column 2: one token
        assert pooling[0, 2].sum() == pytest.approx(0.0)  # column 3: no tokens

    def test_padding_excluded(self):
        column_ids = np.array([[1, 1]])
        mask = np.array([[True, False]])
        pooling = column_pooling_matrix(column_ids, mask, num_columns=1)
        assert pooling[0, 0, 1] == 0.0
        assert pooling[0, 0, 0] == 1.0

    def test_mean_weights(self):
        column_ids = np.array([[1, 1, 1, 2]])
        mask = np.ones((1, 4), dtype=bool)
        pooling = column_pooling_matrix(column_ids, mask, num_columns=2)
        assert np.allclose(pooling[0, 0, :3], 1 / 3)


class TestGatherPositions:
    def test_gathers_rows(self):
        hidden = nn.Tensor(np.arange(24, dtype=np.float32).reshape(2, 3, 4))
        positions = np.array([[0, 2], [1, 1]])
        out = gather_positions(hidden, positions)
        assert out.shape == (2, 2, 4)
        assert np.allclose(out.data[0, 1], hidden.data[0, 2])

    def test_negative_positions_clamped(self):
        hidden = nn.Tensor(np.arange(8, dtype=np.float32).reshape(1, 2, 4))
        out = gather_positions(hidden, np.array([[-1]]))
        assert np.allclose(out.data[0, 0], hidden.data[0, 0])


class TestForwardShapes:
    def test_meta_tower_layers(self, untrained_model, meta_only_batch):
        layers = untrained_model.encode_metadata(meta_only_batch)
        assert len(layers) == untrained_model.config.encoder.num_layers + 1
        for layer in layers:
            assert layer.shape == (
                meta_only_batch.size,
                meta_only_batch.meta_ids.shape[1],
                untrained_model.config.encoder.hidden_size,
            )

    def test_full_forward_shapes(self, untrained_model, batch, tiny_corpus):
        meta_logits, content_logits = untrained_model(batch)
        num_labels = tiny_corpus.registry.num_labels
        expected = (batch.size, batch.col_positions.shape[1], num_labels)
        assert meta_logits.shape == expected
        assert content_logits.shape == expected

    def test_sequence_too_long_raises(self, untrained_model):
        too_long = untrained_model.config.encoder.max_seq_len + 1
        ids = np.zeros((1, too_long), dtype=np.int64)
        with pytest.raises(ValueError):
            untrained_model.embed(ids, ids, ids)

    def test_mlm_logits_shape(self, untrained_model, meta_only_batch, tokenizer):
        logits = untrained_model.mlm_logits(
            meta_only_batch.meta_ids,
            meta_only_batch.meta_segments,
            meta_only_batch.meta_column_ids,
            meta_only_batch.meta_mask,
        )
        assert logits.shape == (
            meta_only_batch.size,
            meta_only_batch.meta_ids.shape[1],
            len(tokenizer),
        )


class TestAsymmetry:
    def test_content_tower_consumes_meta_layers(self, untrained_model, batch):
        """Changing metadata latents must change the content encoding."""
        meta_layers = untrained_model.encode_metadata(batch)
        content_a = untrained_model.encode_content(batch, meta_layers)
        perturbed = [nn.Tensor(layer.data + 1.0) for layer in meta_layers]
        content_b = untrained_model.encode_content(batch, perturbed)
        assert not np.allclose(content_a.data, content_b.data, atol=1e-4)

    def test_meta_tower_independent_of_content(self, untrained_model, featurizer, tiny_corpus):
        """The metadata tower never sees content (the asymmetric dependency)."""
        with_content = collate([featurizer.encode_offline(tiny_corpus.tables[0])])
        without = collate(
            [featurizer.encode_offline(tiny_corpus.tables[0], with_content=False)]
        )
        with nn.no_grad():
            layers_a = untrained_model.encode_metadata(with_content)
            layers_b = untrained_model.encode_metadata(without)
        assert np.allclose(layers_a[-1].data, layers_b[-1].data, atol=1e-6)


class TestLatentCacheEquivalence:
    def test_cached_meta_layers_give_identical_logits(self, untrained_model, batch):
        """Phase 2 with cached latents == recomputing the metadata tower."""
        untrained_model.eval()
        with nn.no_grad():
            meta_layers = untrained_model.encode_metadata(batch)
            cached = [nn.Tensor(layer.data.copy()) for layer in meta_layers]

            content_fresh = untrained_model.encode_content(batch, meta_layers)
            logits_fresh = untrained_model.content_logits(batch, meta_layers, content_fresh)

            content_cached = untrained_model.encode_content(batch, cached)
            logits_cached = untrained_model.content_logits(batch, cached, content_cached)
        assert np.allclose(logits_fresh.data, logits_cached.data, atol=1e-5)


class TestParameterSharing:
    def test_towers_share_transformer_parameters(self, untrained_model):
        """There is exactly one encoder stack serving both towers."""
        encoder_params = {id(p) for p in untrained_model.encoder.parameters()}
        all_params = [id(p) for p in untrained_model.parameters()]
        # encoder parameters appear exactly once in the model's parameter list
        assert sum(1 for pid in all_params if pid in encoder_params) == len(encoder_params)

    def test_parameter_count_reasonable(self, untrained_model):
        assert untrained_model.num_parameters() > 10_000


class TestBatchInvariance:
    def test_logits_independent_of_batch_padding(
        self, untrained_model, featurizer, tiny_corpus
    ):
        """A table's logits are identical alone or padded into a batch."""
        from repro import nn

        e0 = featurizer.encode_offline(tiny_corpus.tables[0])
        e1 = featurizer.encode_offline(tiny_corpus.tables[1])
        untrained_model.eval()
        with nn.no_grad():
            solo_batch = collate([e0])
            solo_meta, solo_content = untrained_model(solo_batch)
            pair = collate([e0, e1])
            pair_meta, pair_content = untrained_model(pair)
        n = e0.num_columns
        assert np.allclose(solo_meta.data[0, :n], pair_meta.data[0, :n], atol=1e-5)
        assert np.allclose(
            solo_content.data[0, :n], pair_content.data[0, :n], atol=1e-5
        )
