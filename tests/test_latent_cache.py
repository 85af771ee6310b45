"""Tests for the per-table latent hand-off: put / get-once, its counters,
and the latents it is handed (only for chunks Phase 2 reads)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CachedEncoding, DetectorConfig, LatentCache, RuntimeConfig, TableJob
from repro.core import TasteDetector, ThresholdPolicy
from repro.core import detector as detector_module
from repro.db import CloudDatabaseServer, CostModel
from repro.features import FeatureConfig, Featurizer
from repro.obs import MetricsRegistry
from repro.sched import forward as sched_forward
from repro.serve import DetectionService
from repro.serve import service as service_module

SPLIT = 3  # columns per chunk: several chunks per table
POLICY = ThresholdPolicy(0.6, 0.7)  # on the test tables, 4 of 7 chunks need Phase 2


def encoding(value: float = 0.0) -> CachedEncoding:
    return CachedEncoding(layer_outputs=[np.full((1, 2, 4), value)])


class TestBasics:
    def test_put_get(self):
        latents = LatentCache()
        latents.put(0, encoding(1.0))
        hit = latents.get(0)
        assert hit is not None
        assert hit.layer_outputs[0][0, 0, 0] == 1.0
        assert latents.hits == 1 and latents.misses == 0

    def test_get_hands_over_once(self):
        latents = LatentCache()
        latents.put(0, encoding())
        assert latents.get(0) is not None and latents.entries == {}
        assert latents.get(0) is None
        assert latents.hits == 1 and latents.misses == 1

    def test_miss_counted(self):
        latents = LatentCache()
        assert latents.get(7) is None
        assert latents.misses == 1


class TestDisabled:
    def test_disabled_cache_never_stores(self):
        latents = LatentCache(enabled=False)
        latents.put(0, encoding())
        assert latents.get(0) is None
        assert latents.entries == {}

    def test_disabled_lookups_are_not_misses(self):
        """The "without caching" ablation never attempts a lookup, so its
        lookups must not inflate the miss counter."""
        latents = LatentCache(enabled=False)
        latents.get(0)
        latents.get(1)
        assert latents.misses == 0
        assert latents.disabled_lookups == 2


# ----------------------------------------------------------------------
# Counted work on a fixed-seed corpus, across every execution mode
# ----------------------------------------------------------------------
def _detector(model, featurizer, **config):
    return TasteDetector(
        model, featurizer, POLICY,
        config=DetectorConfig(**config),
        runtime=RuntimeConfig(metrics=MetricsRegistry()),
    )


def _run(detector, tables, mode):
    server = CloudDatabaseServer.from_tables(tables, CostModel(time_scale=0.0))
    names = [table.name for table in tables]
    if mode != "service":
        return detector.detect(server, names)
    with DetectionService(detector) as service:
        return service.submit("tenant-a", server, names).result(timeout=60.0)


def _counts(report):
    return (report.cache_hits, report.cache_misses, report.cache_disabled_lookups)


@pytest.mark.parametrize("caching", [True, False])
def test_latents_built_only_for_chunks_phase2_reads(
    trained_model, tokenizer, tiny_corpus, monkeypatch, caching
):
    built, jobs = [], []
    build = sched_forward.CachedEncoding

    def counting(*args):
        built.append(1)
        return build(*args)

    class RecordedJob(TableJob):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            jobs.append(self)

    monkeypatch.setattr(sched_forward, "CachedEncoding", counting)
    monkeypatch.setattr(detector_module, "TableJob", RecordedJob)
    monkeypatch.setattr(service_module, "TableJob", RecordedJob)
    featurizer = Featurizer(
        tokenizer, tiny_corpus.registry, FeatureConfig(column_split_threshold=SPLIT)
    )
    seen = set()
    for mode in ("sequential", "pipelined", "service"):
        built.clear()
        jobs.clear()
        detector = _detector(
            trained_model, featurizer, caching=caching, pipelined=mode != "sequential"
        )
        report = _run(detector, tiny_corpus.test, mode)
        chunks = [
            [p.phase for p in table.predictions][start : start + SPLIT]
            for table in report.tables
            for start in range(0, len(table.predictions), SPLIT)
        ]
        needing = sum(1 for phases in chunks if 2 in phases)
        assert 0 < needing < len(chunks)  # the filter has work to do
        assert len(built) == (needing if caching else 0)
        assert _counts(report) == ((needing, 0, 0) if caching else (0, 0, needing))
        assert jobs and not any(job.latents.entries for job in jobs)
        seen.add((len(built), _counts(report)))
    assert len(seen) == 1


def test_report_counts_are_per_run(trained_model, featurizer, tiny_corpus):
    """A warm detector's reports count their own run, not its lifetime."""
    detector = _detector(trained_model, featurizer)
    reports = [
        _run(detector, tiny_corpus.test, mode) for mode in ("pipelined", "pipelined", "service")
    ]
    assert reports[0].cache_hits > 0
    assert len({_counts(report) for report in reports}) == 1
