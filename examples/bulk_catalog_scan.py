"""Bulk catalog scan: pipelined PII discovery over a tenant database.

The cloud-provider scenario from the paper's introduction: given a tenant
database with many tables, tag every column that holds sensitive data
(PII / payment data), as fast and as non-intrusively as possible. Uses the
pipelined executor (Algorithm 1) and compares it against sequential
execution, then prints a sensitive-data report with the database-side cost.

Run:  python examples/bulk_catalog_scan.py
"""

from __future__ import annotations

import os

from repro import nn
from repro.core import (
    ADTDConfig,
    ADTDModel,
    DetectorConfig,
    TasteDetector,
    ThresholdPolicy,
    TrainConfig,
    fine_tune,
)
from repro.datagen import make_gittables_corpus
from repro.db import CloudDatabaseServer, CostModel
from repro.features import FeatureConfig, Featurizer, corpus_texts
from repro.text import Tokenizer

SENSITIVE_TYPES = {
    "person.ssn": "SSN",
    "person.passport": "passport number",
    "finance.credit_card": "payment card",
    "finance.iban": "bank account",
    "person.email": "email address",
    "person.phone": "phone number",
}

# Latencies shaped like the paper's VPC setup (ECS <-> RDS, ~5 ms RTT).
CLOUD_LATENCY = CostModel(
    connect_latency=10e-3,
    round_trip_latency=5e-3,
    metadata_per_table=2e-3,
    scan_fixed=10e-3,
    scan_per_row=2e-4,
)


def main() -> None:
    corpus = make_gittables_corpus(num_tables=int(os.environ.get("EXAMPLE_TABLES", 120)))
    tokenizer = Tokenizer.train(corpus_texts(corpus.train), max_size=2500)
    featurizer = Featurizer(tokenizer, corpus.registry, FeatureConfig())
    encoder = nn.EncoderConfig(
        num_layers=2, num_heads=4, hidden_size=64, intermediate_size=128,
        max_seq_len=512, vocab_size=len(tokenizer),
    )
    model = ADTDModel(ADTDConfig(encoder, num_labels=corpus.registry.num_labels))
    print("fine-tuning the detector...")
    fine_tune(model, featurizer, corpus.train, TrainConfig(epochs=int(os.environ.get("EXAMPLE_EPOCHS", 16))))

    # Compare sequential vs pipelined execution over the tenant's tables.
    # One server serves both runs: each report's cost is its own run's.
    server = CloudDatabaseServer.from_tables(corpus.test, CLOUD_LATENCY)
    timings = {}
    reports = {}
    for mode, pipelined in (("sequential", False), ("pipelined", True)):
        detector = TasteDetector(
            model, featurizer, ThresholdPolicy(0.1, 0.9),
            config=DetectorConfig(pipelined=pipelined),
        )
        report = detector.detect(server)
        timings[mode] = report.wall_seconds
        reports[mode] = report

    report = reports["pipelined"]
    speedup = (timings["sequential"] - timings["pipelined"]) / timings["sequential"]
    print(f"\nprocessed {len(report.tables)} tables / {report.num_columns} columns")
    print(f"sequential: {timings['sequential']:.2f}s   "
          f"pipelined: {timings['pipelined']:.2f}s   ({speedup:.0%} faster)")
    print(f"content scanned for {report.scanned_ratio():.1%} of columns; "
          f"latent cache hits: {report.cache_hits}")

    print("\nsensitive columns found:")
    found = 0
    for prediction in report.predictions:
        tags = [SENSITIVE_TYPES[t] for t in prediction.admitted_types if t in SENSITIVE_TYPES]
        if tags:
            found += 1
            via = "metadata only" if prediction.phase == 1 else "content verified"
            print(f"  {prediction.table_name}.{prediction.column_name:20s} "
                  f"-> {', '.join(tags):18s} ({via})")
    print(f"\n{found} sensitive columns tagged; database-side cost: "
          f"{report.cost}")


if __name__ == "__main__":
    main()
