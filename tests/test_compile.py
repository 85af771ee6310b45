"""Tests for repro.nn.compile — trace-once/replay-many inference plans.

The load-bearing property is bitwise identity: a compiled replay must
produce byte-for-byte the same outputs as the eager no-grad forward, for
every bucket width, both phases, both phase-2 latent modes, at the
``detect()`` level and through ``repro.serve`` — with and without an
active fault plan, and after the model's weights change under live
plans. Everything else here covers the plan mechanics: one plan per phase
and model, per-shape verification, concurrent replays, the
``max_seq_len`` fallback, grad-mode isolation and per-detector counting.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro import nn
from repro.core import (
    ADTDConfig,
    ADTDModel,
    BatchingConfig,
    CompileConfig,
    DetectOptions,
    DetectorConfig,
    RuntimeConfig,
    TasteDetector,
    ThresholdPolicy,
    TrainConfig,
    fine_tune,
)
from repro.datagen import TableGenConfig, generate_table
from repro.db import CloudDatabaseServer, CostModel
from repro.core.latent_cache import CachedEncoding
from repro.faults import FaultPlan, FaultRule
from repro.features.encoding import collate
from repro.nn import compile as nn_compile
from repro.obs import MetricsRegistry
from repro.sched import (
    InferenceBatcher,
    Phase1Request,
    Phase1Result,
    Phase2Request,
    bucket_width,
)
from repro.serve import DetectionService

FAST = CostModel(time_scale=0.0)
# Every probability is uncertain, so every Phase-1 result keeps its latents.
KEEP_LATENTS = ThresholdPolicy(0.0, 1.0)


def _fresh_model(tiny_encoder, tiny_corpus, seed=3):
    return ADTDModel(
        ADTDConfig(tiny_encoder, num_labels=tiny_corpus.registry.num_labels), seed=seed
    )


@pytest.fixture()
def untrained_model(tiny_encoder, tiny_corpus):
    """The session model's twin (seed 0), made per test: a model's plans
    keep their verified and retired shapes for its lifetime."""
    return _fresh_model(tiny_encoder, tiny_corpus, seed=0)


def _run(model, requests, batched=False, metrics=None, compiled=True):
    """Requests through one batcher: replays of the model's plans when
    ``compiled``, eager otherwise; one request per forward unless
    ``batched``. The batcher counts into ``metrics``."""
    config = DetectorConfig(
        batching=BatchingConfig(enabled=batched), compile=CompileConfig(enabled=compiled)
    )
    metrics = metrics if metrics is not None else MetricsRegistry()
    return InferenceBatcher(model, config, metrics=metrics).run(requests)


def _replays(metrics):
    return sum(
        metrics.counter("nn.compile.replays", phase=phase).value for phase in ("1", "2")
    )


def _fallbacks(metrics):
    """Fallbacks of every reason (``counter(name)`` alone reads the
    unlabelled series, which nothing increments)."""
    return sum(
        state["value"]
        for key, state in metrics.snapshot().items()
        if key.startswith("nn.compile.fallbacks{")
    )


def _ladder(quantum=16, cap=512):
    rungs, width = [], quantum
    while width < cap:
        rungs.append(width)
        width = -(-(width + width // 2) // quantum) * quantum
    rungs.append(cap)
    return rungs


def _phase1_requests(featurizer, tables, meta_width=None):
    requests = []
    for table in tables:
        encoded = featurizer.encode_offline(table, with_content=False, with_labels=False)
        width = meta_width or bucket_width(len(encoded.meta.token_ids), 16, cap=512)
        requests.append(
            Phase1Request(encoded=encoded, meta_width=width, phase2_policy=KEEP_LATENTS)
        )
    return requests


def _phase2_requests(featurizer, tables, cached_results=None):
    requests = []
    for index, table in enumerate(tables):
        encoded = featurizer.encode_offline(table, with_labels=False)
        requests.append(
            Phase2Request(
                encoded=encoded,
                meta_width=bucket_width(len(encoded.meta.token_ids), 16, cap=512),
                content_width=bucket_width(len(encoded.content.token_ids), 16, cap=512),
                cached=cached_results[index].encoding if cached_results else None,
            )
        )
    return requests


def _block_first_classifier(monkeypatch):
    """Park the first compiled replay that reaches its classifier until
    ``release`` is set; ``inside`` is set once it is parked."""
    inside, release = threading.Event(), threading.Event()
    classifier = nn_compile.CompiledPlan._classifier

    def parked(plan, *args):
        if not inside.is_set():
            inside.set()
            release.wait(timeout=10.0)
        return classifier(plan, *args)

    monkeypatch.setattr(nn_compile.CompiledPlan, "_classifier", parked)
    return inside, release


def _assert_phase1_bitwise(reference, compiled):
    assert len(reference) == len(compiled)
    for ref, got in zip(reference, compiled):
        assert ref.probs.tobytes() == got.probs.tobytes()
        for ref_layer, got_layer in zip(
            ref.encoding.layer_outputs, got.encoding.layer_outputs
        ):
            assert ref_layer.tobytes() == got_layer.tobytes()


def _assert_bitwise(reference, compiled):
    """Probabilities, and each Phase-1 result's kept latents, bit for bit."""
    assert len(reference) == len(compiled)
    for ref, got in zip(reference, compiled):
        if isinstance(ref, Phase1Result):
            _assert_phase1_bitwise([ref], [got])
        else:
            assert ref.probs.tobytes() == got.probs.tobytes()


# ----------------------------------------------------------------------
# CompileConfig
# ----------------------------------------------------------------------
class TestCompileConfig:
    def test_defaults(self):
        assert CompileConfig().enabled


# ----------------------------------------------------------------------
# Bitwise equivalence, forward level
# ----------------------------------------------------------------------
class TestBitwiseEquivalence:
    def test_phase1_every_bucket_width(self, untrained_model, featurizer, tiny_corpus):
        """The same chunk, padded to every ladder rung, replays bitwise."""
        encoded = featurizer.encode_offline(
            tiny_corpus.tables[0], with_content=False, with_labels=False
        )
        length = len(encoded.meta.token_ids)
        widths = [w for w in _ladder() if w >= length]
        assert len(widths) >= 4, "workload too long to sweep the ladder"
        requests = [
            Phase1Request(encoded=encoded, meta_width=w, phase2_policy=KEEP_LATENTS)
            for w in widths
        ]
        reference = _run(untrained_model, requests, compiled=False)
        metrics = MetricsRegistry()
        # Twice: the first pass verifies each width, the second replays hot.
        for _ in range(2):
            compiled = _run(untrained_model, requests, metrics=metrics)
            _assert_phase1_bitwise(reference, compiled)
        plan = nn_compile.plan_cache(untrained_model)[1]
        assert plan.verified == {(w, "meta") for w in widths}
        assert metrics.counter("nn.compile.replays", phase="1").value == 2 * len(widths)

    def test_phase1_batched(self, untrained_model, featurizer, tiny_corpus):
        requests = _phase1_requests(featurizer, tiny_corpus.tables[:6])
        reference = _run(untrained_model, requests, compiled=False)
        compiled = _run(untrained_model, requests, batched=True)
        _assert_phase1_bitwise(reference, compiled)

    def test_phase2_cached_and_recompute(self, untrained_model, featurizer, tiny_corpus):
        tables = tiny_corpus.tables[:4]
        phase1 = _run(untrained_model, _phase1_requests(featurizer, tables), compiled=False)
        for cached in (None, phase1):
            requests = _phase2_requests(featurizer, tables, cached_results=cached)
            reference = _run(untrained_model, requests, compiled=False)
            for _ in range(2):
                compiled = _run(untrained_model, requests)
                for ref, got in zip(reference, compiled):
                    assert ref.probs.tobytes() == got.probs.tobytes()


# ----------------------------------------------------------------------
# Plan-cache mechanics
# ----------------------------------------------------------------------
class TestPlanCache:
    def test_any_width_under_the_cap_replays_bitwise(
        self, untrained_model, featurizer, tiny_corpus
    ):
        """A width off the bucket ladder replays like any other: the plan
        takes every shape from its batch."""
        metrics = MetricsRegistry()
        encoded = featurizer.encode_offline(
            tiny_corpus.tables[0], with_content=False, with_labels=False
        )
        width = bucket_width(len(encoded.meta.token_ids), 16, cap=512) + 8
        requests = [
            Phase1Request(encoded=encoded, meta_width=width, phase2_policy=KEEP_LATENTS)
        ]
        reference = _run(untrained_model, requests, compiled=False)
        compiled = _run(untrained_model, requests, metrics=metrics)
        _assert_phase1_bitwise(reference, compiled)
        assert nn_compile.plan_cache(untrained_model)[1].verified == {(width, "meta")}
        assert metrics.counter("nn.compile.replays", phase="1").value == 1
        assert metrics.counter("nn.compile.fallbacks", reason="off_ladder").value == 0

    def test_width_over_max_seq_len_raises_the_eager_error(
        self, untrained_model, featurizer, tiny_corpus
    ):
        metrics = MetricsRegistry()
        encoded = featurizer.encode_offline(
            tiny_corpus.tables[0], with_content=False, with_labels=False
        )
        width = untrained_model.config.encoder.max_seq_len + 16
        requests = [Phase1Request(encoded=encoded, meta_width=width)]
        with pytest.raises(ValueError, match="max_seq_len"):
            _run(untrained_model, requests, metrics=metrics)
        assert metrics.counter("nn.compile.fallbacks", reason="off_ladder").value == 1
        assert not nn_compile.plan_cache(untrained_model)[1].verified

    def test_concurrent_replays_on_one_model_both_replay_bitwise(
        self, untrained_model, featurizer, tiny_corpus, monkeypatch
    ):
        """A replay parked mid-forward does not hold the model's plans:
        a second thread's replay on the same model runs to the end beside
        it, both count as replays and both equal the eager forward."""
        metrics = MetricsRegistry()
        encoded = featurizer.encode_offline(
            tiny_corpus.tables[0], with_content=False, with_labels=False
        )
        narrow, wide = [w for w in _ladder() if w >= len(encoded.meta.token_ids)][:2]
        requests = {
            width: [Phase1Request(encoded=encoded, meta_width=width, phase2_policy=KEEP_LATENTS)]
            for width in (narrow, wide)
        }
        reference = {
            width: _run(untrained_model, requests[width], compiled=False)
            for width in (narrow, wide)
        }
        inside, release = _block_first_classifier(monkeypatch)
        results = {}
        replay = threading.Thread(
            target=lambda: results.update(
                narrow=_run(untrained_model, requests[narrow], metrics=metrics)
            )
        )
        replay.start()
        try:
            assert inside.wait(timeout=10.0)
            results["wide"] = _run(untrained_model, requests[wide], metrics=metrics)
            assert "narrow" not in results  # the parked replay is still running
        finally:
            release.set()
            replay.join(timeout=10.0)
        assert not replay.is_alive()
        assert metrics.counter("nn.compile.replays", phase="1").value == 2
        assert _fallbacks(metrics) == 0
        assert nn_compile.plan_cache(untrained_model)[1].verified == {
            (narrow, "meta"),
            (wide, "meta"),
        }
        _assert_phase1_bitwise(reference[wide], results["wide"])
        _assert_phase1_bitwise(reference[narrow], results["narrow"])

    def test_replays_on_more_threads_than_cores_stay_bitwise(
        self, untrained_model, featurizer, tiny_corpus
    ):
        """Four threads replay both phases (and both latent modes) on one
        model at once, switching every microsecond: every forward is a
        replay, none falls back, and each equals the eager forward."""
        tables = tiny_corpus.tables[:4]
        phase1 = _run(untrained_model, _phase1_requests(featurizer, tables), compiled=False)
        requests = (
            _phase1_requests(featurizer, tables)
            + _phase2_requests(featurizer, tables, cached_results=phase1)
            + _phase2_requests(featurizer, tables)
        )
        reference = _run(untrained_model, requests, compiled=False)
        metrics = MetricsRegistry()
        results, errors = [], []

        def worker():
            try:
                for _ in range(3):
                    results.append(_run(untrained_model, requests, metrics=metrics))
            except BaseException as error:
                errors.append(error)
                raise

        threads = [threading.Thread(target=worker) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and len(results) == 12
        for result in results:
            _assert_bitwise(reference, result)
        assert _replays(metrics) == 12 * len(requests)
        assert _fallbacks(metrics) == 0

    def test_plan_cache_is_made_once_per_model(self, tiny_encoder, tiny_corpus):
        """A model's two plans are made on first use and kept: a weight
        change does not replace them (plans read the live weights), and
        another model gets plans of its own."""
        model = _fresh_model(tiny_encoder, tiny_corpus)
        plans = nn_compile.plan_cache(model)
        assert {phase: plan.phase for phase, plan in plans.items()} == {1: 1, 2: 2}
        assert nn_compile.plan_cache(model) is plans
        model.encoder.blocks[0].attention.query_proj.weight.data *= 1.5
        assert nn_compile.plan_cache(model) is plans
        other = nn_compile.plan_cache(_fresh_model(tiny_encoder, tiny_corpus))
        assert other is not plans
        assert all(other[phase] is not plans[phase] for phase in (1, 2))


# ----------------------------------------------------------------------
# One plan per phase, verified per shape
# ----------------------------------------------------------------------
def _spread_tables(registry):
    """Tables spanning four meta widths and six phase-2 width pairs."""
    config = TableGenConfig(min_columns=1, max_columns=18, min_rows=5, max_rows=10)
    rng = np.random.default_rng(11)
    return [generate_table(registry, config, rng, index) for index in range(8)]


class TestPerShapeVerification:
    def test_a_failed_verify_retires_only_its_width(
        self, untrained_model, featurizer, tiny_corpus, monkeypatch
    ):
        metrics = MetricsRegistry()
        encoded = featurizer.encode_offline(
            tiny_corpus.tables[0], with_content=False, with_labels=False
        )
        bad, good = [w for w in _ladder() if w >= len(encoded.meta.token_ids)][:2]
        requests = {
            width: [Phase1Request(encoded=encoded, meta_width=width, phase2_policy=KEEP_LATENTS)]
            for width in (bad, good)
        }
        reference = {
            width: _run(untrained_model, requests[width], compiled=False) for width in (bad, good)
        }
        matches = nn_compile.CompiledPlan._matches

        def fails_at_bad(plan, outputs, expected):
            if plan.phase == 1 and outputs[1][0].shape[1] == bad:
                return False
            return matches(plan, outputs, expected)

        monkeypatch.setattr(nn_compile.CompiledPlan, "_matches", fails_at_bad)
        for _ in range(2):
            for width in (bad, good):
                compiled = _run(untrained_model, requests[width], metrics=metrics)
                _assert_phase1_bitwise(reference[width], compiled)
        plan = nn_compile.plan_cache(untrained_model)[1]
        assert plan.dead == {bad}
        assert plan.verified == {(good, "meta")}
        assert metrics.counter("nn.compile.fallbacks", reason="verify").value == 1
        assert metrics.counter("nn.compile.fallbacks", reason="dead").value == 1
        assert metrics.counter("nn.compile.replays", phase="1").value == 2

    def test_one_verify_per_shape(
        self, untrained_model, featurizer, tiny_corpus, monkeypatch
    ):
        tables = _spread_tables(tiny_corpus.registry)
        verifies = []

        def spy(phase, eager):
            def wrapped(model, batch, *cached):
                shape = batch.meta_ids.shape[1]
                mode = "meta"
                if phase == 2:
                    shape = (shape, batch.content_ids.shape[1])
                    mode = "cached" if cached[0] is not None else "recompute"
                verifies.append((phase, shape, mode))
                return eager(model, batch, *cached)

            return wrapped

        monkeypatch.setattr(nn_compile, "eager_phase1", spy(1, nn_compile.eager_phase1))
        monkeypatch.setattr(nn_compile, "eager_phase2", spy(2, nn_compile.eager_phase2))
        metrics = MetricsRegistry()
        detector = TasteDetector(
            untrained_model,
            featurizer,
            KEEP_LATENTS,
            config=DetectorConfig(pipelined=False),
            runtime=RuntimeConfig(metrics=metrics),
        )
        for _ in range(2):
            detector.detect(CloudDatabaseServer.from_tables(tables, FAST))
        plans = nn_compile.plan_cache(untrained_model)
        assert len({shape for _, shape, _ in verifies if isinstance(shape, int)}) >= 3
        assert len({shape for _, shape, _ in verifies if isinstance(shape, tuple)}) >= 3
        assert len(verifies) == len(set(verifies))
        assert set(verifies) == {
            (phase, shape, mode) for phase, plan in plans.items() for shape, mode in plan.verified
        }
        for phase in ("1", "2"):
            assert metrics.counter("nn.compile.replays", phase=phase).value > len(verifies)
        assert _fallbacks(metrics) == 0


def _common_width_batches(model, featurizer, tables):
    """Phase-1 and Phase-2 batches of ``tables`` at one shared meta and
    content width, and each row's Phase-1 latents at that meta width."""
    encoded_p1 = [
        featurizer.encode_offline(table, with_content=False, with_labels=False)
        for table in tables
    ]
    encoded_p2 = [featurizer.encode_offline(table, with_labels=False) for table in tables]
    meta = max(
        bucket_width(len(encoded.meta.token_ids), 16, cap=512)
        for encoded in encoded_p1 + encoded_p2
    )
    content = max(
        bucket_width(len(encoded.content.token_ids), 16, cap=512) for encoded in encoded_p2
    )
    batch1 = collate(encoded_p1, meta_width=meta)
    batch2 = collate(encoded_p2, meta_width=meta, content_width=content)
    _, layers = nn_compile.eager_phase1(model, batch1)
    cached = [
        CachedEncoding([layer[row : row + 1].copy() for layer in layers])
        for row in range(len(tables))
    ]
    return batch1, batch2, cached


class TestSlicedVerification:
    """A first-seen shape is verified against an eager reference built
    ``VERIFY_ROWS`` rows at a time."""

    @pytest.mark.parametrize("rows", [nn_compile.VERIFY_ROWS, 2])
    @pytest.mark.parametrize("size", [1, 2, 5])
    def test_sliced_reference_equals_the_whole_batch_forward(
        self, untrained_model, featurizer, tiny_corpus, monkeypatch, size, rows
    ):
        monkeypatch.setattr(nn_compile, "VERIFY_ROWS", rows)
        batch1, batch2, cached = _common_width_batches(
            untrained_model, featurizer, tiny_corpus.tables[:size]
        )
        logits, layers = nn_compile.sliced_reference(untrained_model, 1, batch1, None)
        ref_logits, ref_layers = nn_compile.eager_phase1(untrained_model, batch1)
        assert logits.tobytes() == ref_logits.tobytes()
        assert len(layers) == len(ref_layers)
        for layer, ref_layer in zip(layers, ref_layers):
            assert layer.tobytes() == ref_layer.tobytes()
        for latents in (cached, None):
            sliced = nn_compile.sliced_reference(untrained_model, 2, batch2, latents)
            whole = nn_compile.eager_phase2(untrained_model, batch2, latents)
            assert sliced.shape == whole.shape
            assert sliced.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("phase", [1, 2])
    def test_a_mismatch_in_the_last_row_retires_the_shape(
        self, untrained_model, featurizer, tiny_corpus, monkeypatch, phase
    ):
        """The last row of a 5-row batch lies in the reference's last
        slice, not its first; a replay wrong only there still retires its
        shape, and the forward hands back the correct eager outputs."""
        assert nn_compile.VERIFY_ROWS < 5
        batch1, batch2, cached = _common_width_batches(
            untrained_model, featurizer, tiny_corpus.tables[:5]
        )
        replay = nn_compile.CompiledPlan._replay

        def planted(plan, *args):
            outputs = replay(plan, *args)
            logits = outputs[0] if plan.phase == 1 else outputs
            logits[-1, 0, 0] = np.nextafter(logits[-1, 0, 0], np.inf)
            return outputs

        monkeypatch.setattr(nn_compile.CompiledPlan, "_replay", planted)
        events = []
        plan = nn_compile.plan_cache(untrained_model)[phase]
        if phase == 1:
            expected = nn_compile.eager_phase1(untrained_model, batch1)[0]
            got = plan.run(untrained_model, batch1, None, events)[0]
            shape = batch1.meta_ids.shape[1]
        else:
            expected = nn_compile.eager_phase2(untrained_model, batch2, cached)
            got = plan.run(untrained_model, batch2, cached, events)
            shape = (batch2.meta_ids.shape[1], batch2.content_ids.shape[1])
        assert got.tobytes() == expected.tobytes()
        assert plan.dead == {shape}
        assert not plan.verified
        assert events == [("fallback", "verify")]


# ----------------------------------------------------------------------
# Grad-mode isolation and weight changes under live plans
# ----------------------------------------------------------------------
class TestGradIsolation:
    def test_training_never_routes_through_plans(
        self, tiny_encoder, tiny_corpus, featurizer, monkeypatch
    ):
        """Training runs the autograd forward: it leaves the warm plans
        alone and replays nothing, and compiled inference afterwards still
        equals eager bit for bit."""
        model = _fresh_model(tiny_encoder, tiny_corpus)
        metrics = MetricsRegistry()
        compiled = _make_detector(model, featurizer, True, metrics=metrics)
        eager = _make_detector(model, featurizer, False)

        def detect(detector):
            return _report_bytes(
                detector.detect(CloudDatabaseServer.from_tables(tiny_corpus.test, FAST))
            )

        before = detect(compiled)
        plans = nn_compile.plan_cache(model)
        verified = {phase: set(plan.verified) for phase, plan in plans.items()}
        assert all(verified.values())
        replayed = []
        run = nn_compile.CompiledPlan.run
        monkeypatch.setattr(
            nn_compile.CompiledPlan,
            "run",
            lambda plan, *args: replayed.append(plan.phase) or run(plan, *args),
        )
        fine_tune(
            model,
            featurizer,
            tiny_corpus.train[:4],
            TrainConfig(epochs=1, batch_size=4, learning_rate=1e-3),
        )
        assert replayed == []
        assert nn_compile.plan_cache(model) is plans
        assert {phase: plan.verified for phase, plan in plans.items()} == verified
        counted = _replays(metrics)
        after = detect(compiled)
        assert _replays(metrics) > counted
        assert after == detect(eager) != before

    def test_weights_mutated_under_a_live_plan_cache(
        self, tiny_encoder, featurizer, tiny_corpus
    ):
        """Weights changed in place after a warm compiled ``detect()`` — a
        scaled projection, then one optimiser step outside ``train()`` —
        reach the next replay: compiled stays bitwise equal to eager."""
        from repro.core.training import task_losses

        model = _fresh_model(tiny_encoder, tiny_corpus)
        metrics = MetricsRegistry()
        compiled = _make_detector(model, featurizer, True, metrics=metrics)
        eager = _make_detector(model, featurizer, False)

        def detect(detector):
            return _report_bytes(
                detector.detect(CloudDatabaseServer.from_tables(tiny_corpus.test, FAST))
            )

        def optimiser_step():
            optimizer = nn.Adam(model.parameters(), lr=1e-2)
            meta_loss, content_loss = task_losses(
                model, collate([featurizer.encode_offline(tiny_corpus.train[0])])
            )
            (meta_loss + content_loss).backward()
            optimizer.step()
            model.zero_grad()

        def scale_key_projection():
            model.encoder.blocks[0].attention.key_proj.weight.data *= 1.5

        previous = detect(eager)
        assert detect(compiled) == previous
        for mutate in (scale_key_projection, optimiser_step):
            mutate()
            counted = _replays(metrics)
            expected = detect(eager)
            assert expected != previous
            assert detect(compiled) == expected
            assert _replays(metrics) > counted
            previous = expected

    def test_load_state_dict_drops_stale_plans(
        self, tiny_encoder, featurizer, tiny_corpus
    ):
        """Loading weights into a model whose warm detector replays plans
        must not leave those plans on the old weights."""
        model = _fresh_model(tiny_encoder, tiny_corpus)
        compiled = _make_detector(model, featurizer, True)
        eager = _make_detector(model, featurizer, False)

        def detect(detector):
            return _report_bytes(
                detector.detect(CloudDatabaseServer.from_tables(tiny_corpus.test, FAST))
            )

        assert detect(compiled) == detect(eager)
        model.load_state_dict(ADTDModel(model.config, seed=99).state_dict())
        assert detect(compiled) == detect(eager)

    def test_loading_a_submodule_drops_the_model_plans(
        self, tiny_encoder, featurizer, tiny_corpus
    ):
        """Plans are cached per model, so loading weights into one of its
        submodules must drop them too."""
        model = _fresh_model(tiny_encoder, tiny_corpus)
        compiled = _make_detector(model, featurizer, True)
        eager = _make_detector(model, featurizer, False)

        def detect(detector):
            return _report_bytes(
                detector.detect(CloudDatabaseServer.from_tables(tiny_corpus.test, FAST))
            )

        assert detect(compiled) == detect(eager)
        model.content_classifier.load_state_dict(
            ADTDModel(model.config, seed=99).content_classifier.state_dict()
        )
        assert detect(compiled) == detect(eager)

    def test_grad_mode_unaffected_by_enabled_plans(
        self, untrained_model, featurizer, tiny_corpus
    ):
        from repro.core.training import task_losses
        from repro.features.encoding import collate

        nn_compile.plan_cache(untrained_model)
        encoded = featurizer.encode_offline(tiny_corpus.train[0])
        batch = collate([encoded])
        meta_loss, content_loss = task_losses(untrained_model, batch)
        (meta_loss + content_loss).backward()
        grads = [p.grad for p in untrained_model.parameters()]
        assert any(g is not None and np.abs(g).sum() > 0 for g in grads)


# ----------------------------------------------------------------------
# End-to-end: detect() and serve, with and without faults
# ----------------------------------------------------------------------
def _make_detector(model, featurizer, compiled, metrics=None):
    return TasteDetector(
        model,
        featurizer,
        ThresholdPolicy(0.1, 0.9),
        config=DetectorConfig(pipelined=True, compile=CompileConfig(enabled=compiled)),
        # `metrics or MetricsRegistry()` would be wrong here: an empty
        # registry is falsy (len == 0) and would be silently replaced.
        runtime=RuntimeConfig(
            metrics=metrics if metrics is not None else MetricsRegistry()
        ),
    )


def _report_bytes(report):
    return sorted(
        (p.table_name, p.column_name, tuple(p.admitted_types), p.phase,
         p.probabilities.tobytes())
        for p in report.predictions
    )


class TestEndToEnd:
    def test_detect_bitwise_compiled_vs_eager(self, trained_model, featurizer, tiny_corpus):
        metrics = MetricsRegistry()
        reports = {}
        for compiled in (False, True):
            server = CloudDatabaseServer.from_tables(tiny_corpus.test, FAST)
            detector = _make_detector(
                trained_model, featurizer, compiled,
                metrics=metrics if compiled else None,
            )
            reports[compiled] = detector.detect(server)
        assert _report_bytes(reports[True]) == _report_bytes(reports[False])
        assert metrics.counter("nn.compile.replays", phase="1").value > 0

    def test_detect_bitwise_under_fault_plan(self, trained_model, featurizer, tiny_corpus):
        plan = FaultPlan(
            seed=7,
            rules=(FaultRule("fetch_values", "transient", probability=0.4),),
        )
        reports = {}
        for compiled in (False, True):
            server = CloudDatabaseServer.from_tables(tiny_corpus.test, FAST)
            detector = _make_detector(trained_model, featurizer, compiled)
            reports[compiled] = detector.detect(
                server, options=DetectOptions(fault_plan=plan)
            )
        assert _report_bytes(reports[True]) == _report_bytes(reports[False])

    def test_serve_bitwise_compiled_vs_eager(self, trained_model, featurizer, tiny_corpus):
        names = [table.name for table in tiny_corpus.test[:6]]
        reports = {}
        for compiled in (False, True):
            server = CloudDatabaseServer.from_tables(tiny_corpus.test, FAST)
            detector = _make_detector(trained_model, featurizer, compiled)
            with DetectionService(detector) as service:
                handle = service.submit("tenant-a", server, names)
                reports[compiled] = handle.result(timeout=60.0)
        assert _report_bytes(reports[True]) == _report_bytes(reports[False])

    def test_compile_off_detector_leaves_other_detectors_plans(
        self, trained_model, featurizer, tiny_corpus
    ):
        """A compile-off detector runs eager without detaching the plan
        cache a default detector on the same model replays from."""
        metrics = MetricsRegistry()

        def detect(detector):
            before = _replays(metrics)
            detector.detect(CloudDatabaseServer.from_tables(tiny_corpus.test, FAST))
            return _replays(metrics) - before

        compiled = _make_detector(trained_model, featurizer, True, metrics=metrics)
        eager = _make_detector(trained_model, featurizer, False, metrics=metrics)
        assert detect(compiled) > 0
        assert detect(eager) == 0
        assert detect(compiled) > 0

    def test_each_detector_counts_its_own_replays(self, trained_model, featurizer, tiny_corpus):
        """Two compiled detectors on one model share its plan cache, but
        each counts the replays of its own runs into its own registry."""
        registries = {"a": MetricsRegistry(), "b": MetricsRegistry()}
        first = _make_detector(trained_model, featurizer, True, metrics=registries["a"])
        cache = nn_compile.plan_cache(trained_model)
        second = _make_detector(trained_model, featurizer, True, metrics=registries["b"])
        first.detect(CloudDatabaseServer.from_tables(tiny_corpus.test, FAST))
        ran = _replays(registries["a"])
        assert ran > 0 and _replays(registries["b"]) == 0
        second.detect(CloudDatabaseServer.from_tables(tiny_corpus.test, FAST))
        assert _replays(registries["a"]) == ran
        assert _replays(registries["b"]) > 0
        assert nn_compile.plan_cache(trained_model) is cache
