"""Shared infrastructure for the experiment harness.

Training the models is the expensive part of every experiment, so this
module provides a *model zoo*: corpora, tokenizers and trained checkpoints
are built once per (scale, corpus, variant) and cached on disk under
``REPRO_CACHE_DIR`` (default ``<repo>/.repro_cache``). Experiments and
benchmarks then only pay for detection runs.

Two scales are provided:

* ``default`` — the scale used to produce EXPERIMENTS.md;
* ``small``  — a faster profile for benchmarks and CI.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .. import nn
from ..baselines import (
    BaselineTrainConfig,
    SingleTowerModel,
    build_doduo_model,
    build_turl_model,
    fine_tune_baseline,
)
from ..core import ADTDConfig, ADTDModel, TrainConfig, fine_tune
from ..datagen import (
    Corpus,
    make_gittables_corpus,
    make_wikitable_corpus,
    retain_types,
    split_indices,
)
from ..db import CloudDatabaseServer, CostModel
from ..features import FeatureConfig, Featurizer, corpus_texts
from ..text import Tokenizer, Vocab

__all__ = [
    "Scale",
    "SCALES",
    "get_scale",
    "cache_dir",
    "paper_cost_model",
    "get_corpus",
    "get_tokenizer",
    "get_featurizer",
    "get_taste_model",
    "get_baseline_model",
    "get_fig6_bundle",
    "get_wide_corpus",
    "get_wide_taste_model",
    "make_server",
    "encoder_config",
]


@dataclass(frozen=True)
class Scale:
    """Size profile of an experiment run."""

    name: str
    num_tables: int
    vocab_size: int
    taste_epochs: int
    turl_epochs: int
    doduo_epochs: int
    doduo_lr: float
    timing_runs: int


SCALES = {
    "default": Scale(
        name="default",
        num_tables=300,
        vocab_size=3000,
        taste_epochs=20,
        turl_epochs=16,
        doduo_epochs=20,
        doduo_lr=1.5e-3,
        timing_runs=3,
    ),
    # "small" keeps the training *step* budget (~600 optimizer steps) that
    # the loss-plateau escape requires, with a smaller corpus and fewer
    # timing repetitions.
    "small": Scale(
        name="small",
        num_tables=200,
        vocab_size=2500,
        taste_epochs=30,
        turl_epochs=24,
        doduo_epochs=26,
        doduo_lr=1.5e-3,
        timing_runs=2,
    ),
}


def get_scale(name: str | None = None) -> Scale:
    """Resolve a scale by name or the ``REPRO_SCALE`` environment variable."""
    name = name or os.environ.get("REPRO_SCALE", "default")
    try:
        return SCALES[name]
    except KeyError:
        raise KeyError(f"unknown scale {name!r}; have {sorted(SCALES)}") from None


def cache_dir() -> Path:
    """The checkpoint/vocab cache directory (created on demand)."""
    root = os.environ.get("REPRO_CACHE_DIR")
    path = Path(root) if root else Path(__file__).resolve().parents[3] / ".repro_cache"
    path.mkdir(parents=True, exist_ok=True)
    return path


def paper_cost_model(time_scale: float = 1.0) -> CostModel:
    """Latency constants mimicking the paper's ECS<->RDS VPC setup.

    The paper reports ~5 ms network delay between the detection service and
    the user database; content scans then cost tens of ms for ``m=50`` rows
    while metadata fetches are single round trips. These constants keep the
    same proportions at a bench-friendly absolute size.
    """
    return CostModel(
        connect_latency=10e-3,
        round_trip_latency=5e-3,
        metadata_per_table=2e-3,
        scan_fixed=10e-3,
        scan_per_row=2e-4,
        sampling_overhead=5e-3,
        time_scale=time_scale,
    )


def encoder_config(vocab_len: int) -> nn.EncoderConfig:
    """The TASTE-scale encoder used throughout the experiments.

    A CPU-trainable rendition of the paper's TinyBERT-sized encoder
    (L=4, A=12, H=312, I=1200): same family, smaller width/depth.
    """
    return nn.EncoderConfig(
        num_layers=2,
        num_heads=4,
        hidden_size=64,
        intermediate_size=128,
        max_seq_len=512,
        vocab_size=vocab_len,
        dropout_p=0.1,
    )


# ----------------------------------------------------------------------
# Corpora and tokenizers (in-process memoization; corpora are deterministic)
# ----------------------------------------------------------------------
_CORPUS_CACHE: dict[tuple[str, str], Corpus] = {}
_TOKENIZER_CACHE: dict[tuple[str, str], Tokenizer] = {}


def get_corpus(name: str, scale: Scale) -> Corpus:
    """``"wikitable"`` or ``"gittables"`` at the given scale."""
    key = (name, scale.name)
    if key not in _CORPUS_CACHE:
        if name == "wikitable":
            _CORPUS_CACHE[key] = make_wikitable_corpus(scale.num_tables)
        elif name == "gittables":
            _CORPUS_CACHE[key] = make_gittables_corpus(scale.num_tables)
        else:
            raise KeyError(f"unknown corpus {name!r}")
    return _CORPUS_CACHE[key]


def get_tokenizer(corpus: Corpus, scale: Scale) -> Tokenizer:
    """Train-or-load the tokenizer for a corpus (cached on disk)."""
    key = (corpus.name, scale.name)
    if key in _TOKENIZER_CACHE:
        return _TOKENIZER_CACHE[key]
    path = cache_dir() / f"{scale.name}-{corpus.name}-vocab.txt"
    if path.exists():
        tokenizer = Tokenizer(Vocab.load(path))
    else:
        tokenizer = Tokenizer.train(
            corpus_texts(corpus.train), max_size=scale.vocab_size
        )
        tokenizer.vocab.save(path)
    _TOKENIZER_CACHE[key] = tokenizer
    return tokenizer


def get_featurizer(
    corpus: Corpus,
    scale: Scale,
    use_histogram: bool = False,
    **overrides,
) -> Featurizer:
    """Featurizer bound to the corpus tokenizer/registry."""
    config = FeatureConfig(use_histogram=use_histogram, **overrides)
    return Featurizer(get_tokenizer(corpus, scale), corpus.registry, config)


# ----------------------------------------------------------------------
# Trained models
# ----------------------------------------------------------------------
def _checkpoint_path(scale: Scale, corpus_name: str, variant: str) -> Path:
    return cache_dir() / f"{scale.name}-{corpus_name}-{variant}.npz"


def get_taste_model(
    corpus: Corpus,
    scale: Scale,
    use_histogram: bool = False,
    automatic_weighting: bool = True,
) -> tuple[ADTDModel, Featurizer]:
    """Train-or-load the ADTD model for a corpus.

    ``use_histogram`` selects the "with histogram" variant;
    ``automatic_weighting=False`` trains the fixed-loss ablation (plain sum
    of task losses instead of the automatic weighted loss).
    """
    variant = "taste-hist" if use_histogram else "taste"
    if not automatic_weighting:
        variant += "-fixedloss"
    featurizer = get_featurizer(corpus, scale, use_histogram=use_histogram)
    config = ADTDConfig(
        encoder_config(len(featurizer.tokenizer)),
        num_labels=corpus.registry.num_labels,
    )
    model = ADTDModel(config, seed=0)
    path = _checkpoint_path(scale, corpus.name, variant)
    if path.exists():
        nn.load_checkpoint(model, path)
        model.eval()
    else:
        fine_tune(
            model,
            featurizer,
            corpus.train,
            TrainConfig(
                epochs=scale.taste_epochs, automatic_weighting=automatic_weighting
            ),
        )
        nn.save_checkpoint(model, path)
    return model, featurizer


def get_baseline_model(
    corpus: Corpus, scale: Scale, which: str
) -> tuple[SingleTowerModel, Featurizer]:
    """Train-or-load a TURL-like or Doduo-like baseline."""
    featurizer = get_featurizer(corpus, scale)
    vocab_len = len(featurizer.tokenizer)
    encoder = encoder_config(vocab_len)
    if which == "turl":
        model = build_turl_model(encoder, corpus.registry.num_labels)
        train_config = BaselineTrainConfig(epochs=scale.turl_epochs)
    elif which == "doduo":
        model = build_doduo_model(encoder, corpus.registry.num_labels)
        train_config = BaselineTrainConfig(
            epochs=scale.doduo_epochs, learning_rate=scale.doduo_lr
        )
    else:
        raise KeyError(f"unknown baseline {which!r}")
    path = _checkpoint_path(scale, corpus.name, which)
    if path.exists():
        nn.load_checkpoint(model, path)
        model.eval()
    else:
        fine_tune_baseline(model, featurizer, corpus.train, train_config)
        nn.save_checkpoint(model, path)
    return model, featurizer


# ----------------------------------------------------------------------
# Fig. 8(a): wide-table bundle (the l sweep needs tables wider than l)
# ----------------------------------------------------------------------
def get_wide_corpus(scale: Scale) -> Corpus:
    """A WikiTable-like corpus of wide tables (10-24 columns).

    The regular corpora top out at 8 columns, which makes the column-split
    threshold sweep (Fig. 8a) inert; this corpus exercises real splitting.
    """
    from ..datagen import TableGenConfig
    from ..datagen.corpora import _build
    from ..datagen.types import default_registry

    key = ("wikitable-wide", scale.name)
    if key not in _CORPUS_CACHE:
        config = TableGenConfig(
            min_columns=10,
            max_columns=24,
            ambiguous_name_prob=0.9,
            abbreviate_prob=0.15,
            comment_prob=0.15,
            table_comment_prob=0.6,
        )
        _CORPUS_CACHE[key] = _build(
            "wikitable-wide",
            max(scale.num_tables // 2, 60),
            config,
            default_registry(),
            seed=2,
        )
    return _CORPUS_CACHE[key]


def get_wide_taste_model(scale: Scale) -> tuple[ADTDModel, Featurizer]:
    """Train-or-load the ADTD model for the wide-table corpus.

    Trained at the default l=20 so column-id embeddings up to 20 are
    exercised; evaluation then varies l downward.
    """
    from dataclasses import replace

    corpus = get_wide_corpus(scale)
    tokenizer = get_tokenizer(get_corpus("wikitable", scale), scale)
    featurizer = Featurizer(tokenizer, corpus.registry, FeatureConfig())
    # A 20-column chunk's content stream can reach ~640 tokens, so the wide
    # model gets a larger position-embedding budget.
    encoder = replace(encoder_config(len(tokenizer)), max_seq_len=768)
    config = ADTDConfig(encoder, num_labels=corpus.registry.num_labels)
    model = ADTDModel(config, seed=0)
    path = _checkpoint_path(scale, "wikitable-wide", "taste")
    if path.exists():
        nn.load_checkpoint(model, path)
        model.eval()
    else:
        fine_tune(
            model, featurizer, corpus.train, TrainConfig(epochs=scale.taste_epochs)
        )
        nn.save_checkpoint(model, path)
    return model, featurizer


# ----------------------------------------------------------------------
# Fig. 6: retained-type-set bundles (WikiTable-S_k)
# ----------------------------------------------------------------------
@dataclass
class Fig6Bundle:
    """A tuned dataset WikiTable-S_k with its trained model."""

    k: int
    eta: float  # ratio of columns without any type (test split)
    model: ADTDModel
    featurizer: Featurizer
    test_tables: list


def get_fig6_bundle(scale: Scale, k: int) -> Fig6Bundle:
    """Build WikiTable-S_k (seed 0, as the paper), train-or-load its model."""
    base = get_corpus("wikitable", scale)
    tuned_tables, reduced_registry = retain_types(base.tables, base.registry, k, seed=0)
    splits = split_indices(len(tuned_tables))
    train = [tuned_tables[i] for i in splits["train"]]
    test = [tuned_tables[i] for i in splits["test"]]

    tokenizer = get_tokenizer(base, scale)
    featurizer = Featurizer(tokenizer, reduced_registry, FeatureConfig())
    config = ADTDConfig(
        encoder_config(len(tokenizer)), num_labels=reduced_registry.num_labels
    )
    model = ADTDModel(config, seed=0)
    path = _checkpoint_path(scale, "wikitable", f"taste-k{k}")
    if path.exists():
        nn.load_checkpoint(model, path)
        model.eval()
    else:
        fine_tune(model, featurizer, train, TrainConfig(epochs=scale.taste_epochs))
        nn.save_checkpoint(model, path)

    untyped = sum(1 for t in test for c in t.columns if not c.types)
    total = sum(t.num_columns for t in test)
    return Fig6Bundle(
        k=k,
        eta=untyped / total if total else 0.0,
        model=model,
        featurizer=featurizer,
        test_tables=test,
    )


def make_server(
    tables, cost_model: CostModel | None = None, analyze: bool = False
) -> CloudDatabaseServer:
    """A server hosting ``tables``, free of real waits by default."""
    return CloudDatabaseServer.from_tables(
        tables, cost_model or CostModel(time_scale=0.0), analyze=analyze
    )
