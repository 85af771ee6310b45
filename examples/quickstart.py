"""Quickstart: train a small TASTE detector and label one table.

Builds a synthetic table corpus, fine-tunes the ADTD model for a few
minutes of CPU time, hosts the test tables in the simulated cloud database,
and runs two-phase detection on one table — printing which phase decided
each column and which columns' content was actually scanned.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import os

import time

from repro import nn
from repro.core import ADTDConfig, ADTDModel, TasteDetector, ThresholdPolicy, TrainConfig, fine_tune
from repro.datagen import make_wikitable_corpus
from repro.db import CloudDatabaseServer, CostModel
from repro.features import FeatureConfig, Featurizer, corpus_texts
from repro.text import Tokenizer


def main() -> None:
    # 1. A corpus of synthetic relational tables (WikiTable-like regime).
    corpus = make_wikitable_corpus(num_tables=int(os.environ.get("EXAMPLE_TABLES", 120)))
    print(f"corpus: {corpus.stats().num_tables} tables, "
          f"{corpus.stats().num_columns} columns, "
          f"{len(corpus.registry)} semantic types")

    # 2. Tokenizer + featurizer over the training split.
    tokenizer = Tokenizer.train(corpus_texts(corpus.train), max_size=2500)
    featurizer = Featurizer(tokenizer, corpus.registry, FeatureConfig())

    # 3. The ADTD model (metadata tower + content tower, shared blocks).
    encoder = nn.EncoderConfig(
        num_layers=2, num_heads=4, hidden_size=64, intermediate_size=128,
        max_seq_len=512, vocab_size=len(tokenizer),
    )
    model = ADTDModel(ADTDConfig(encoder, num_labels=corpus.registry.num_labels))
    print(f"model: {model.num_parameters():,} parameters")

    started = time.perf_counter()
    epochs = int(os.environ.get("EXAMPLE_EPOCHS", 16))
    history = fine_tune(model, featurizer, corpus.train, TrainConfig(epochs=epochs))
    print(f"fine-tuned in {time.perf_counter() - started:.0f}s "
          f"(final losses: meta={history.meta_losses[-1]:.4f}, "
          f"content={history.content_losses[-1]:.4f})")

    # 4. Host the test tables behind the simulated cloud database.
    server = CloudDatabaseServer.from_tables(corpus.test, CostModel())

    # 5. Two-phase detection with the default certainty thresholds.
    detector = TasteDetector(model, featurizer, ThresholdPolicy(alpha=0.1, beta=0.9))
    table = corpus.test[0]
    report = detector.detect_table(server, table.name)

    print(f"\ntable {table.name!r}:")
    truth = {c.name: c.types for c in table.columns}
    for prediction in report.predictions:
        print(
            f"  {prediction.column_name:24s} phase={prediction.phase} "
            f"predicted={prediction.admitted_types or ['<none>']} "
            f"truth={truth[prediction.column_name] or ['<none>']}"
        )
    print(f"\nscanned {report.cost['scanned_columns']} of "
          f"{table.num_columns} columns "
          f"({report.scanned_ratio():.0%} needed Phase 2)")


if __name__ == "__main__":
    main()
