"""Tests for repro.sched: the cross-table inference batcher, the
featurizer's token-id memo, and — the load-bearing property — that every
execution mode forwards through the batcher and produces
bitwise-identical reports."""

from __future__ import annotations

import pytest

from repro.core import (
    BatchingConfig,
    CompileConfig,
    DetectOptions,
    DetectorConfig,
    RuntimeConfig,
    TasteDetector,
    ThresholdPolicy,
)
from repro.db import CloudDatabaseServer, CostModel
from repro.faults import FaultPlan, FaultRule
from repro.features.encoding import TokenEncodeCache
from repro.obs.metrics import MetricsRegistry
from repro.sched import (
    InferenceBatcher,
    Phase1Request,
    Phase1Result,
    Phase2Request,
    run_phase1,
)
from repro.serve import DetectionService

FAST = CostModel(time_scale=0.0)
# Every probability is uncertain, so every Phase-1 result keeps its latents.
KEEP_LATENTS = ThresholdPolicy(0.0, 1.0)


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
class TestBatchingConfig:
    def test_defaults_valid(self):
        config = BatchingConfig()
        assert config.enabled
        assert config.max_batch_cols >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch_cols": 0},
            {"max_batch_cols": -1},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BatchingConfig(**kwargs)

    def test_replace_revalidates(self):
        config = BatchingConfig()
        assert config.replace(max_batch_cols=8).max_batch_cols == 8
        with pytest.raises(ValueError):
            config.replace(max_batch_cols=-2)


# ----------------------------------------------------------------------
# Featurizer token-id memo
# ----------------------------------------------------------------------
class TestTokenEncodeCache:
    def test_hit_and_miss_counting(self, tokenizer):
        cache = TokenEncodeCache(tokenizer, capacity=8)
        first = cache.encode("customer email address")
        again = cache.encode("customer email address")
        other = cache.encode("customer phone number")
        assert first == again == tokenizer.encode("customer email address")
        assert other == tokenizer.encode("customer phone number")
        assert cache.hits == 1 and cache.misses == 2

    def test_returns_fresh_lists(self, tokenizer):
        cache = TokenEncodeCache(tokenizer, capacity=8)
        ids = cache.encode("customer email address")
        ids.append(-1)  # caller-side mutation must not poison the cache
        assert cache.encode("customer email address") == ids[:-1]

    def test_distinct_options_are_distinct_entries(self, tokenizer):
        cache = TokenEncodeCache(tokenizer, capacity=8)
        cache.encode("email address", max_len=4)
        cache.encode("email address", max_len=8)
        assert cache.misses == 2 and cache.hits == 0

    def test_capacity_evicts_lru(self, tokenizer):
        cache = TokenEncodeCache(tokenizer, capacity=2)
        cache.encode("alpha")
        cache.encode("beta")
        cache.encode("gamma")  # evicts "alpha"
        cache.encode("alpha")
        assert cache.hits == 0 and cache.misses == 4


# ----------------------------------------------------------------------
# Batcher mechanics (driven directly, no executor)
# ----------------------------------------------------------------------
def _phase1_requests(featurizer, tables):
    return [
        Phase1Request(
            encoded=featurizer.encode_offline(table, with_content=False, with_labels=False),
            phase2_policy=KEEP_LATENTS,
        )
        for table in tables
    ]


def _one_per_forward(model, requests):
    """The unbatched eager reference: every request its own forward."""
    return [run_phase1(model, [request], None)[0] for request in requests]


class TestInferenceBatcher:
    def test_results_match_local_forwards_bitwise(
        self, untrained_model, featurizer, tiny_corpus
    ):
        requests = _phase1_requests(featurizer, tiny_corpus.tables[:4])
        reference = _one_per_forward(untrained_model, requests)
        batcher = InferenceBatcher(
            untrained_model, DetectorConfig(), metrics=MetricsRegistry()
        )
        batched = batcher.run(requests)
        assert all(isinstance(result, Phase1Result) for result in batched)
        for ref, got in zip(reference, batched):
            assert ref.probs.tobytes() == got.probs.tobytes()
            for ref_layer, got_layer in zip(
                ref.encoding.layer_outputs, got.encoding.layer_outputs
            ):
                assert ref_layer.tobytes() == got_layer.tobytes()

    def test_full_flush_when_cols_exceed_budget(
        self, untrained_model, featurizer, tiny_corpus
    ):
        """A phase's requests wider than ``max_batch_cols`` are cut, in
        order, into several forwards: with a 2-column budget and tables of
        at least 2 columns, every request rides alone."""
        metrics = MetricsRegistry()
        config = DetectorConfig(batching=BatchingConfig(max_batch_cols=2))
        batcher = InferenceBatcher(untrained_model, config, metrics=metrics)
        requests = _phase1_requests(featurizer, tiny_corpus.tables[:3])
        assert all(request.num_columns >= 2 for request in requests)
        results = batcher.run(requests)
        reference = _one_per_forward(untrained_model, requests)
        assert [r.probs.tobytes() for r in results] == [
            r.probs.tobytes() for r in reference
        ]
        assert metrics.counter("sched.requests").value == len(requests)
        assert metrics.counter("sched.forwards").value == len(requests)
        assert metrics.histogram("sched.batch_requests").max == 1

    def test_failed_forward_fails_only_its_batch(
        self, untrained_model, featurizer, tiny_corpus
    ):
        batcher = InferenceBatcher(
            untrained_model, DetectorConfig(), metrics=MetricsRegistry()
        )
        bad = Phase1Request(encoded=None)  # forward will raise
        good = _phase1_requests(featurizer, tiny_corpus.tables[:1])
        with pytest.raises(Exception):
            batcher.run([bad])
        # A failed run leaves nothing behind: later calls still run.
        results = batcher.run(good)
        assert len(results) == 1 and isinstance(results[0], Phase1Result)

    def test_any_lengths_share_a_forward_and_phases_never_do(
        self, untrained_model, featurizer, tiny_corpus
    ):
        """Requests of one phase share a forward whatever their lengths,
        the two phases never share one, and results come back in request
        order, each equal to its table's own forward."""
        tables = tiny_corpus.tables[:6]
        phase1 = _phase1_requests(featurizer, tables)
        assert len({request.meta_width for request in phase1}) > 1
        phase2 = [
            Phase2Request(encoded=featurizer.encode_offline(table, with_labels=False))
            for table in tables
        ]
        requests = [r for pair in zip(phase1, phase2) for r in pair]  # interleaved
        metrics = MetricsRegistry()
        config = DetectorConfig(batching=BatchingConfig(max_batch_cols=10**6))
        results = InferenceBatcher(untrained_model, config, metrics=metrics).run(requests)
        assert metrics.counter("sched.forwards").value == 2
        unbatched = InferenceBatcher(
            untrained_model, DetectorConfig(batching=UNBATCHED), metrics=MetricsRegistry()
        ).run(requests)
        assert [r.probs.tobytes() for r in results] == [r.probs.tobytes() for r in unbatched]
        assert [type(r) for r in results] == [type(r) for r in unbatched]


# ----------------------------------------------------------------------
# End-to-end equivalence: a table's outputs depend on the table alone
# ----------------------------------------------------------------------
def _detect(model, featurizer, tables, config, options=None):
    server = CloudDatabaseServer.from_tables(tables, FAST)
    detector = TasteDetector(
        model,
        featurizer,
        ThresholdPolicy(0.3, 0.7),
        config=config,
        runtime=RuntimeConfig(metrics=MetricsRegistry()),
    )
    report = detector.detect(server, options=options)
    return detector, report


UNBATCHED = BatchingConfig(enabled=False)
# Every execution mode; each must forward through the detector's batcher.
MODES = {
    "sequential-batched": (DetectorConfig(pipelined=False), False),
    "sequential-unbatched": (DetectorConfig(pipelined=False, batching=UNBATCHED), False),
    "pipelined-batched": (DetectorConfig(pipelined=True), False),
    "pipelined-unbatched": (DetectorConfig(pipelined=True, batching=UNBATCHED), False),
    "service": (DetectorConfig(pipelined=True), True),
}


def _assert_reports_bitwise_equal(report_a, report_b):
    preds_a = sorted(
        (p for t in report_a.tables for p in t.predictions),
        key=lambda p: (p.table_name, p.column_name),
    )
    preds_b = sorted(
        (p for t in report_b.tables for p in t.predictions),
        key=lambda p: (p.table_name, p.column_name),
    )
    assert len(preds_a) == len(preds_b)
    for a, b in zip(preds_a, preds_b):
        assert (a.table_name, a.column_name) == (b.table_name, b.column_name)
        assert a.phase == b.phase
        assert a.admitted_types == b.admitted_types
        assert a.probabilities.tobytes() == b.probabilities.tobytes()


class TestBatchedEquivalence:
    def test_sequential_vs_pipelined_batched_bitwise(
        self, trained_model, featurizer, tiny_corpus
    ):
        tables = tiny_corpus.train[:10]
        _, seq_report = _detect(
            trained_model, featurizer, tables, DetectorConfig(pipelined=False)
        )
        _, bat_report = _detect(
            trained_model,
            featurizer,
            tables,
            DetectorConfig(pipelined=True),
        )
        _assert_reports_bitwise_equal(seq_report, bat_report)

    def test_pipelined_unbatched_matches_batched(
        self, trained_model, featurizer, tiny_corpus
    ):
        tables = tiny_corpus.train[:10]
        off_detector, off_report = _detect(
            trained_model,
            featurizer,
            tables,
            DetectorConfig(pipelined=True, batching=UNBATCHED),
        )
        forwards = off_detector.metrics.counter("sched.forwards").value
        assert forwards == off_detector.metrics.counter("sched.requests").value > 0
        _, on_report = _detect(
            trained_model,
            featurizer,
            tables,
            DetectorConfig(pipelined=True),
        )
        _assert_reports_bitwise_equal(off_report, on_report)

    def test_equivalence_under_fault_plan(
        self, untrained_model, featurizer, tiny_corpus
    ):
        """Deterministic faults perturb timing and retries, never results:
        both executors recover the same transient faults identically and
        degrade the same give-up table to its Phase-1 prediction."""
        tables = tiny_corpus.train[:8]
        recovered = tables[0].name  # 2 faults < 3 retry attempts: recovers
        doomed = tables[1].name  # every attempt faults: gives up, degrades
        plan = FaultPlan(
            rules=(
                FaultRule(
                    "fetch_values",
                    "latency",
                    probability=1.0,
                    delay=0.002,
                ),
                FaultRule(
                    "fetch_values",
                    "transient",
                    probability=1.0,
                    max_faults=2,
                    tables=(recovered,),
                ),
                FaultRule(
                    "fetch_values",
                    "transient",
                    probability=1.0,
                    tables=(doomed,),
                ),
            )
        )
        _, seq_report = _detect(
            untrained_model,
            featurizer,
            tables,
            DetectorConfig(pipelined=False),
            options=DetectOptions(fault_plan=plan),
        )
        _, bat_report = _detect(
            untrained_model,
            featurizer,
            tables,
            DetectorConfig(pipelined=True),
            options=DetectOptions(fault_plan=plan),
        )
        assert seq_report.giveups == bat_report.giveups >= 1
        degraded_seq = {t.table_name for t in seq_report.tables if t.degraded}
        degraded_bat = {t.table_name for t in bat_report.tables if t.degraded}
        assert degraded_seq == degraded_bat == {doomed}
        _assert_reports_bitwise_equal(seq_report, bat_report)

    @pytest.mark.parametrize("mode", list(MODES))
    def test_every_mode_forwards_through_the_batcher(
        self, mode, trained_model, featurizer, tiny_corpus, table_jobs
    ):
        """Sequential or pipelined, batched or not, direct or served: the
        batcher runs every chunk request the run makes, one per forward
        when batching is off, and the report is bitwise the sequential,
        unbatched, eager reference's."""
        tables = tiny_corpus.train[:10]
        _, reference = _detect(
            trained_model,
            featurizer,
            tables,
            DetectorConfig(
                pipelined=False,
                batching=UNBATCHED,
                compile=CompileConfig(enabled=False),
            ),
        )
        config, served = MODES[mode]
        metrics = MetricsRegistry()
        detector = TasteDetector(
            trained_model,
            featurizer,
            ThresholdPolicy(0.3, 0.7),
            config=config,
            runtime=RuntimeConfig(metrics=metrics),
        )
        server = CloudDatabaseServer.from_tables(tables, FAST)
        table_jobs.clear()
        if served:
            with DetectionService(detector) as service:
                handle = service.submit("tenant-a", server, [t.name for t in tables])
                report = handle.result(timeout=60.0)
        else:
            report = detector.detect(server)
        assert len(table_jobs) == len(tables)
        phase1 = sum(len(job.chunks) for job in table_jobs)
        phase2 = sum(len(job._phase2_chunks()) for job in table_jobs)
        assert phase2 > 0
        requests = metrics.counter("sched.requests").value
        assert requests == phase1 + phase2
        if not config.batching.enabled:
            assert metrics.counter("sched.forwards").value == requests
            assert metrics.histogram("sched.batch_requests").max == 1
        _assert_reports_bitwise_equal(reference, report)
