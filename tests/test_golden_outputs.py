"""Golden outputs: the reference forward's predictions, pinned absolutely.

Every other equivalence test compares two modes with each other (compiled
with eager, pipelined with sequential, a service with ``detect()``). A
change to a kernel both sides share — ``softmax_``, ``layer_norm_``,
``gelu_`` — moves both sides alike and passes them all. This test pins
the per-table outputs of a fixed-seed corpus under the reference config
(sequential, unbatched, eager) in ``tests/golden_outputs.json``, at two
levels:

* **exact**: a sha256 digest per table over every prediction's phase,
  admitted types and probability bytes, recorded per OpenBLAS core;
* **rounded**: each column's top label and its probability to 1e-4.

OpenBLAS picks its kernels by CPU (``DYNAMIC_ARCH``), and two cores'
kernels may sum in different orders, so an exact digest is a fact about
one core. On a core the file records, an exact mismatch fails: the
program's arithmetic changed. On a core it does not record, an exact
mismatch with another core's digests means nothing by itself, so the test
checks there what does carry over: the rounded level must match, and the
shipped default detector (pipelined, batched, compiled) must reproduce
the reference's digests bit for bit on that core. Nothing is skipped on
any core. The running core is printed by ``python -m
tests.test_golden_outputs --core`` (CI prints it beside the tier-1 run).

Regenerate the file, after a change that moves outputs on purpose, with
``PYTHONPATH=src python -m tests.test_golden_outputs --write``, and say in
CHANGES.md why the outputs moved. That drops the digests of every other
core, which the change made stale.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core import (
    ADTDConfig,
    ADTDModel,
    BatchingConfig,
    CompileConfig,
    DetectorConfig,
    RuntimeConfig,
    TasteDetector,
    ThresholdPolicy,
)
from repro.datagen import make_gittables_corpus, make_wikitable_corpus
from repro.db import CloudDatabaseServer, CostModel
from repro.experiments.common import encoder_config
from repro.features import FeatureConfig, Featurizer, corpus_texts
from repro.obs import MetricsRegistry, Tracer
from repro.text import Tokenizer

GOLDEN = Path(__file__).with_name("golden_outputs.json")
REGENERATE = "PYTHONPATH=src python -m tests.test_golden_outputs --write"
REFERENCE = DetectorConfig(
    pipelined=False,
    batching=BatchingConfig(enabled=False),
    compile=CompileConfig(enabled=False),
)
# Phase 1 alone, then every column through Phase 2 on Phase 1's latents:
# together they pin both towers and both classifiers.
POLICIES = {"p1": ThresholdPolicy.privacy_mode(), "p2": ThresholdPolicy(0.0, 1.0)}
# One wiki-like slice at the default column split, one git-like slice
# split every 4 columns, so multi-chunk tables and one-column chunks occur.
SLICES = {
    "wiki": (lambda: make_wikitable_corpus(6, seed=19), FeatureConfig()),
    "git": (lambda: make_gittables_corpus(6, seed=23), FeatureConfig(column_split_threshold=4)),
}


def blas_core() -> str:
    """The name of the OpenBLAS core kernels this process runs, or
    ``"unknown"`` when no loaded OpenBLAS reports one."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename64_", "openblas_get_corename"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_char_p
                return getter().decode()
    return "unknown"


def table_digest(result) -> str:
    digest = hashlib.sha256()
    for prediction in sorted(result.predictions, key=lambda p: p.column_name):
        head = (prediction.column_name, prediction.phase, tuple(prediction.admitted_types))
        digest.update(repr(head).encode())
        digest.update(prediction.probabilities.tobytes())
    return digest.hexdigest()


def top_labels(result, registry) -> list[list]:
    return [
        [p.column_name, registry.label_names[int(np.argmax(p.probabilities))],
         round(float(p.probabilities.max()), 4)]
        for p in result.predictions
    ]


def run_outputs(config: DetectorConfig = REFERENCE) -> tuple[dict, dict]:
    """``(digests, labels)`` of every slice and policy under ``config``,
    keyed ``slice:policy:table``."""
    digests, labels = {}, {}
    for name, (make_corpus, features) in SLICES.items():
        corpus = make_corpus()
        tokenizer = Tokenizer.train(corpus_texts(corpus.tables), max_size=800)
        featurizer = Featurizer(tokenizer, corpus.registry, features)
        encoder = replace(encoder_config(len(tokenizer)), dropout_p=0.0)
        model = ADTDModel(ADTDConfig(encoder, num_labels=corpus.registry.num_labels), seed=7)
        for policy_name, policy in POLICIES.items():
            detector = TasteDetector(
                model, featurizer, policy, config=config,
                runtime=RuntimeConfig(metrics=MetricsRegistry(), tracer=Tracer(enabled=False)),
            )
            server = CloudDatabaseServer.from_tables(corpus.tables, CostModel(time_scale=0.0))
            for result in detector.detect(server).tables:
                key = f"{name}:{policy_name}:{result.table_name}"
                digests[key] = table_digest(result)
                labels[key] = top_labels(result, corpus.registry)
    return digests, labels


def test_reference_outputs_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text())
    digests, labels = run_outputs()
    assert labels.keys() == golden["labels"].keys()
    for key, columns in labels.items():
        pinned = golden["labels"][key]
        assert [c[:2] for c in columns] == [c[:2] for c in pinned], key
        assert np.allclose([c[2] for c in columns], [c[2] for c in pinned], rtol=0, atol=1.5e-4), key
    core = blas_core()
    if core in golden["digests"]:
        moved = sorted(k for k, d in digests.items() if golden["digests"][core].get(k) != d)
        assert not moved, (
            f"exact outputs moved on OpenBLAS core {core} for {moved}; "
            f"if on purpose, regenerate with `{REGENERATE}`"
        )
    assert run_outputs(DetectorConfig())[0] == digests


def _write() -> None:
    digests, labels = run_outputs()
    payload = {
        "regenerate": REGENERATE,
        "corpus": "6 wiki-like tables (seed 19) and 6 git-like tables (seed 23, split every "
        "4 columns); untrained experiment-scale ADTD model (seed 7); reference config; "
        "privacy-mode policy (p1) and every column to Phase 2 (p2)",
        "digests": {blas_core(): digests},
        "labels": labels,
    }
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if "--core" in sys.argv:
        print(f"OpenBLAS core: {blas_core()}")
    elif "--write" in sys.argv:
        _write()
    else:
        sys.exit(f"usage: {REGENERATE} | python -m tests.test_golden_outputs --core")
