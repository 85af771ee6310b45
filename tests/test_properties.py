"""Cross-module property-based tests over randomly generated tables."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import ADTDConfig, ADTDModel
from repro.core.latent_cache import CachedEncoding
from repro.datagen import TableGenConfig, default_registry, generate_table
from repro.db import Database
from repro.features import (
    NUMERIC_FEATURE_DIM,
    FeatureConfig,
    Featurizer,
    collate,
    first_non_empty,
    offline_metadata,
    split_metadata,
)
from repro.nn import EncoderConfig
from repro.nn import compile as nn_compile
from repro.text import Tokenizer

REGISTRY = default_registry()
TOKENIZER = Tokenizer.train(
    [t.name for t in REGISTRY]
    + [name for t in REGISTRY for name in t.clean_names]
    + ["table data sample text 123-45-6789"],
    max_size=1500,
)
FEATURIZER = Featurizer(TOKENIZER, REGISTRY, FeatureConfig())


table_configs = st.builds(
    TableGenConfig,
    min_columns=st.just(2),
    max_columns=st.integers(2, 7),
    min_rows=st.just(5),
    max_rows=st.integers(5, 25),
    ambiguous_name_prob=st.floats(0, 1),
    abbreviate_prob=st.floats(0, 0.5),
    comment_prob=st.floats(0, 1),
    background_fraction=st.floats(0, 1),
    empty_cell_prob=st.floats(0, 0.5),
)


@given(table_configs, st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_generated_table_roundtrips_through_database(config, seed):
    table = generate_table(REGISTRY, config, np.random.default_rng(seed), 0)
    database = Database()
    database.create_table(table)
    metadata = database.metadata(table.name)
    assert len(metadata.columns) == table.num_columns
    rows = database.read_rows(table.name)
    assert len(rows) == table.num_rows


@given(table_configs, st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_encoding_invariants(config, seed):
    table = generate_table(REGISTRY, config, np.random.default_rng(seed), 0)
    encoded = FEATURIZER.encode_offline(table)

    # one [COL] position and one numeric row per column
    assert len(encoded.meta.col_positions) == table.num_columns
    assert encoded.numeric.shape == (table.num_columns, NUMERIC_FEATURE_DIM)

    # column ids on metadata tokens are within range
    assert encoded.meta.column_ids.max() <= table.num_columns
    assert encoded.meta.column_ids.min() >= 0

    # labels one-hot rows are consistent with ground truth
    for index, column in enumerate(table.columns):
        decoded = REGISTRY.vector_to_labels(encoded.labels[index])
        assert set(decoded) == set(column.types)

    # batching a single table is lossless for the token stream
    batch = collate([encoded])
    length = len(encoded.meta.token_ids)
    assert np.array_equal(batch.meta_ids[0, :length], encoded.meta.token_ids)
    assert batch.meta_mask[0, :length].all()


@given(table_configs, st.integers(0, 10_000), st.integers(1, 6))
@settings(max_examples=20, deadline=None)
def test_split_metadata_preserves_column_order(config, seed, threshold):
    from repro.features import split_metadata

    table = generate_table(REGISTRY, config, np.random.default_rng(seed), 0)
    metadata = offline_metadata(table)
    chunks = split_metadata(metadata, threshold)
    rejoined = [c.column_name for chunk in chunks for c in chunk.columns]
    assert rejoined == [c.name for c in table.columns]


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_statistics_bounds(seed):
    config = TableGenConfig(min_rows=5, max_rows=30)
    table = generate_table(REGISTRY, config, np.random.default_rng(seed), 0)
    metadata = offline_metadata(table, with_histogram=True)
    for column in metadata.columns:
        assert 0 <= column.null_fraction <= 1
        assert 0 <= column.num_distinct <= column.num_rows
        assert column.avg_length <= column.max_length or column.num_distinct == 0
        assert abs(sum(column.histogram.fractions) - 1.0) < 1e-6 or (
            column.histogram.num_distinct == 0
        )


adtd_configs = st.builds(
    lambda layers, heads, head_dim, intermediate, meta_hidden, content_hidden: ADTDConfig(
        EncoderConfig(
            num_layers=layers,
            num_heads=heads,
            hidden_size=heads * head_dim,
            intermediate_size=intermediate,
            max_seq_len=512,
            vocab_size=len(TOKENIZER),
            dropout_p=0.0,
        ),
        num_labels=REGISTRY.num_labels,
        meta_classifier_hidden=meta_hidden,
        content_classifier_hidden=content_hidden,
    ),
    st.integers(1, 2),
    st.sampled_from([1, 2, 4]),
    st.sampled_from([2, 4, 8]),
    st.integers(4, 48),
    st.integers(2, 24),
    st.integers(2, 24),
)


def _compiled(model, phase, batch, cached=None):
    """``CompiledPlan.run`` of one phase; the replay itself must pass
    its own verification, not fall back to the eager reference."""
    plan = nn_compile.CompiledPlan(phase, model.config)
    events = []
    outputs = plan.run(model, batch, cached, events)
    assert events == [("replay", phase)]
    return outputs


def _same_bits(*arrays):
    first = arrays[0].tobytes()
    return all(array.tobytes() == first for array in arrays[1:])


# Batch-mates: one to five columns, cells often empty (a content stream
# can be one [VAL] token), split into chunks of one to three columns.
chunked_tables = st.tuples(
    st.builds(
        TableGenConfig,
        min_columns=st.just(1),
        max_columns=st.integers(1, 5),
        min_rows=st.just(5),
        max_rows=st.integers(5, 15),
        empty_cell_prob=st.sampled_from([0.0, 0.5, 1.0]),
    ),
    st.integers(0, 10_000),
    st.integers(1, 3),
)


def _chunks(index, spec):
    """The Phase-2 encodings of one generated table's column chunks."""
    table_config, seed, size = spec
    table = generate_table(REGISTRY, table_config, np.random.default_rng(seed), index)
    content = [first_non_empty(column.values[:50], 10) for column in table.columns]
    return [
        FEATURIZER.encode(
            chunk, {local: content[start * size + local] for local in range(len(chunk.columns))}
        )
        for start, chunk in enumerate(split_metadata(offline_metadata(table), size))
    ]


@given(adtd_configs, st.integers(0, 10_000), st.lists(chunked_tables, min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_grad_eager_and_compiled_forwards_agree_bitwise(config, model_seed, specs):
    """The autograd forward of each chunk alone, at its real widths, the
    no-grad eager forward and the compiled replay compute the same logits
    and per-layer latents bit for bit, and so does every row of one
    replay over all the chunks: beside batch-mates of other lengths,
    one-column chunks and one-token content streams among them."""
    model = ADTDModel(config, seed=model_seed)
    chunks = [chunk for index, spec in enumerate(specs) for chunk in _chunks(index, spec)]
    batch = collate(chunks)
    assume(max(batch.meta_ids.shape[1], batch.content_ids.shape[1]) <= 512)
    mates_p1 = _compiled(model, 1, batch)
    eager_cached = [
        CachedEncoding([layer[None].copy() for layer in layers]) for _, layers in mates_p1
    ]
    mates_p2 = {
        mode: _compiled(model, 2, batch, latents)
        for mode, latents in (("cached", eager_cached), ("recompute", [None] * len(chunks)))
    }
    for row, chunk in enumerate(chunks):
        alone = collate([chunk])
        columns = chunk.num_columns
        grad_layers = model.encode_metadata(alone)
        grad_p1 = model.meta_logits(alone, grad_layers)
        grad_p2 = model.content_logits(alone, grad_layers, model.encode_content(alone, grad_layers))
        assert grad_p1.requires_grad and grad_p2.requires_grad

        eager_p1, eager_layers = nn_compile.eager_phase1(model, alone)
        compiled_p1, compiled_layers = _compiled(model, 1, alone)[0]
        assert _same_bits(grad_p1.data[0, :columns], eager_p1[0, :columns], compiled_p1, mates_p1[row][0])
        assert len(grad_layers) == len(eager_layers) == len(compiled_layers) == config.encoder.num_layers + 1
        for layers in zip(grad_layers, eager_layers, compiled_layers, mates_p1[row][1]):
            assert _same_bits(layers[0].data[0], layers[1][0], *layers[2:])

        cached = [CachedEncoding([layer.copy() for layer in eager_layers])]
        assert _same_bits(
            grad_p2.data[0, :columns],
            nn_compile.eager_phase2(model, alone, cached)[0, :columns],
            nn_compile.eager_phase2(model, alone, None)[0, :columns],
            _compiled(model, 2, alone, cached)[0],
            _compiled(model, 2, alone, [None])[0],
            mates_p2["cached"][row],
            mates_p2["recompute"][row],
        )
