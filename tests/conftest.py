"""Shared fixtures: tiny corpora, tokenizers and models kept session-scoped
so the suite stays fast while still exercising real trained behaviour.
Also the end-of-run check that a run left nothing held."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.core import ADTDConfig, ADTDModel, TrainConfig, fine_tune
from repro.core.phases import TableJob
from repro.datagen import TableGenConfig, default_registry, generate_table, make_wikitable_corpus
from repro.features import FeatureConfig, Featurizer, corpus_texts
from repro.text import Tokenizer


@pytest.fixture(scope="session")
def registry():
    return default_registry()


@pytest.fixture(scope="session")
def tiny_corpus():
    return make_wikitable_corpus(num_tables=30)


@pytest.fixture(scope="session")
def tokenizer(tiny_corpus):
    return Tokenizer.train(corpus_texts(tiny_corpus.tables), max_size=1500)


@pytest.fixture(scope="session")
def tiny_encoder(tokenizer):
    return nn.EncoderConfig(
        num_layers=1,
        num_heads=2,
        hidden_size=32,
        intermediate_size=64,
        max_seq_len=512,
        vocab_size=len(tokenizer),
        dropout_p=0.0,
    )


@pytest.fixture(scope="session")
def featurizer(tokenizer, tiny_corpus):
    return Featurizer(tokenizer, tiny_corpus.registry, FeatureConfig())


@pytest.fixture(scope="session")
def untrained_model(tiny_encoder, tiny_corpus):
    return ADTDModel(
        ADTDConfig(tiny_encoder, num_labels=tiny_corpus.registry.num_labels), seed=0
    )


@pytest.fixture(scope="session")
def trained_model(tiny_encoder, tiny_corpus, featurizer):
    """An ADTD model briefly fine-tuned on the tiny corpus."""
    model = ADTDModel(
        ADTDConfig(tiny_encoder, num_labels=tiny_corpus.registry.num_labels), seed=0
    )
    fine_tune(
        model,
        featurizer,
        tiny_corpus.train,
        TrainConfig(epochs=6, batch_size=8, learning_rate=3e-3),
    )
    return model


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture()
def sample_table(registry, rng):
    config = TableGenConfig(min_columns=4, max_columns=6, min_rows=30, max_rows=40)
    return generate_table(registry, config, rng, table_id=0)


@pytest.fixture()
def table_jobs(monkeypatch):
    """Every :class:`TableJob` constructed during the test, in order."""
    jobs: list[TableJob] = []
    original_init = TableJob.__init__

    def recording_init(job, *args, **kwargs):
        original_init(job, *args, **kwargs)
        jobs.append(job)

    monkeypatch.setattr(TableJob, "__init__", recording_init)
    return jobs


def assert_no_leaked_connections(service=None, server=None, *, table_jobs=()):
    """Nothing a finished run took is still held.

    * every connection the service's pool for ``server`` created is back
      on the idle list;
    * no job in ``table_jobs`` still holds latents.
    """
    pool = service._pools.get(id(server)) if service is not None else None
    if pool is not None:  # None: the job never touched the pool
        with pool._lock:
            assert len(pool._idle) == pool._created
    holding = [job.table_name for job in table_jobs if job.latents.entries]
    assert not holding, f"table jobs still hold latents: {holding}"
