"""Tests for repro.nn.compile — trace-once/replay-many inference plans.

The load-bearing property is bitwise identity: a compiled replay must
produce byte-for-byte the same outputs as the eager no-grad forward of
each table alone at its real widths, for every length, both phases, both
phase-2 latent modes, at the ``detect()`` level and through
``repro.serve`` — with and without an active fault plan, and after the
model's weights change under live plans. Everything else here covers the
plan mechanics: one plan per phase and model, per-key verification,
concurrent replays, the ``max_seq_len`` fallback, grad-mode isolation and
per-detector counting.
"""

from __future__ import annotations

import functools
import sys
import threading
from dataclasses import replace

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
)
from repro.sched import forward as sched_forward
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
    keep their verified and retired keys for its lifetime."""
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


def _phase1_requests(featurizer, tables):
    return [
        Phase1Request(
            encoded=featurizer.encode_offline(table, with_content=False, with_labels=False),
            phase2_policy=KEEP_LATENTS,
        )
        for table in tables
    ]


def _phase2_requests(featurizer, tables, cached_results=None):
    return [
        Phase2Request(
            encoded=featurizer.encode_offline(table, with_labels=False),
            cached=cached_results[index].encoding if cached_results else None,
        )
        for index, table in enumerate(tables)
    ]


def _spread_tables(registry, count=8):
    """Tables of 1 to 18 columns: many metadata lengths and phase-2
    length pairs, one-column tables among them."""
    config = TableGenConfig(min_columns=1, max_columns=18, min_rows=5, max_rows=10)
    rng = np.random.default_rng(11)
    return [generate_table(registry, config, rng, index) for index in range(count)]


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
    def test_phase1_every_length(self, untrained_model, featurizer, tiny_corpus):
        """Chunks of many metadata lengths, one forward: each row replays
        bitwise its table's own eager forward, and each length is
        verified once."""
        requests = _phase1_requests(featurizer, _spread_tables(tiny_corpus.registry))
        lengths = {request.meta_width for request in requests}
        assert len(lengths) >= 4
        reference = _run(untrained_model, requests, compiled=False)
        metrics = MetricsRegistry()
        # Twice: the first pass verifies each length, the second replays hot.
        for _ in range(2):
            compiled = _run(untrained_model, requests, batched=True, metrics=metrics)
            _assert_phase1_bitwise(reference, compiled)
        plan = nn_compile.plan_cache(untrained_model)[1]
        assert plan.verified == {(length, "meta") for length in lengths}
        forwards = metrics.counter("sched.forwards").value
        assert metrics.counter("nn.compile.replays", phase="1").value == forwards < len(requests)
        assert _fallbacks(metrics) == 0

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


    def test_row_by_row_products_replay_bitwise(
        self, untrained_model, featurizer, tiny_corpus, monkeypatch
    ):
        """A plan whose BLAS fails the row-independence check makes every
        token-wise product row by row: each row still equals its table's
        own eager forward, in both phases and both latent modes."""
        monkeypatch.setattr(nn_compile, "packs_exactly", lambda shapes: False)
        tables = _spread_tables(tiny_corpus.registry)
        phase1 = _run(untrained_model, _phase1_requests(featurizer, tables), compiled=False)
        requests = (
            _phase1_requests(featurizer, tables)
            + _phase2_requests(featurizer, tables, cached_results=phase1)
            + _phase2_requests(featurizer, tables)
        )
        reference = _run(untrained_model, requests, compiled=False)
        metrics = MetricsRegistry()
        compiled = _run(untrained_model, requests, batched=True, metrics=metrics)
        assert not any(plan.packs for plan in nn_compile.plan_cache(untrained_model).values())
        _assert_bitwise(reference, compiled)
        assert _replays(metrics) > 0 and _fallbacks(metrics) == 0


    def test_a_short_content_row_beside_longer_rows_replays_bitwise(
        self, tiny_encoder, featurizer, tiny_corpus
    ):
        """At ``hidden_size=32, intermediate_size=40`` the BLAS of some
        cores computes a 2- or 3-row slice of a product of ~800 rows or
        more unlike the same rows multiplied alone, which
        ``packs_exactly`` must find out. A Phase-2 forward whose 3-token
        content stream rides beside longer rows, 1,500 content tokens in
        all, still replays every row bitwise, in both latent modes, with
        no fallback."""
        config = ADTDConfig(
            replace(tiny_encoder, intermediate_size=40),
            num_labels=tiny_corpus.registry.num_labels,
        )
        model = ADTDModel(config, seed=0)
        tables = _spread_tables(tiny_corpus.registry)
        encoded1, encoded2, cached = _encodings(model, featurizer, tables)
        short = featurizer.with_content(encoded1[0], {0: ["a"]})
        assert 2 <= len(short.content.token_ids) <= 3
        encoded = [encoded2[1], short, *encoded2[2:]]
        assert sum(len(table.content.token_ids) for table in encoded) > 1000
        plan = nn_compile.CompiledPlan(2, model.config)
        for latents in ([cached[1], cached[0], *cached[2:]], [None] * len(encoded)):
            events = []
            replayed = _replay(plan, model, encoded, latents, events)
            assert events == [("replay", 2)]
            for row, table in enumerate(encoded):
                expected = sched_forward.eager_forward(model, 2, table, latents[row])
                assert replayed[row].tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# Plan-cache mechanics
# ----------------------------------------------------------------------
class TestPlanCache:
    def test_any_width_under_the_cap_replays_bitwise(
        self, untrained_model, featurizer, tiny_corpus
    ):
        """A metadata sequence exactly ``max_seq_len`` long replays like
        any other: the plan takes every length from its batch."""
        metrics = MetricsRegistry()
        encoded = featurizer.encode_offline(
            tiny_corpus.tables[0], with_content=False, with_labels=False
        )
        width = len(encoded.meta.token_ids)
        config = untrained_model.config
        model = ADTDModel(
            replace(config, encoder=replace(config.encoder, max_seq_len=width)), seed=0
        )
        requests = [Phase1Request(encoded=encoded, phase2_policy=KEEP_LATENTS)]
        reference = _run(model, requests, compiled=False)
        compiled = _run(model, requests, metrics=metrics)
        _assert_phase1_bitwise(reference, compiled)
        assert nn_compile.plan_cache(model)[1].verified == {(width, "meta")}
        assert metrics.counter("nn.compile.replays", phase="1").value == 1
        assert _fallbacks(metrics) == 0

    def test_width_over_max_seq_len_raises_the_eager_error(
        self, untrained_model, featurizer, tiny_corpus
    ):
        metrics = MetricsRegistry()
        encoded = featurizer.encode_offline(
            tiny_corpus.tables[0], with_content=False, with_labels=False
        )
        config = untrained_model.config
        model = ADTDModel(
            replace(
                config,
                encoder=replace(config.encoder, max_seq_len=len(encoded.meta.token_ids) - 1),
            ),
            seed=0,
        )
        requests = [Phase1Request(encoded=encoded)]
        with pytest.raises(ValueError, match="max_seq_len"):
            _run(model, requests, metrics=metrics)
        assert metrics.counter("nn.compile.fallbacks", reason="too_long").value == 1
        assert not nn_compile.plan_cache(model)[1].verified

    def test_concurrent_replays_on_one_model_both_replay_bitwise(
        self, untrained_model, featurizer, tiny_corpus, monkeypatch
    ):
        """A replay parked mid-forward does not hold the model's plans:
        a second thread's replay on the same model runs to the end beside
        it, both count as replays and both equal the eager forward."""
        metrics = MetricsRegistry()
        narrow, wide = sorted(
            _phase1_requests(featurizer, tiny_corpus.tables[:8]), key=lambda r: r.meta_width
        )[:: 7]
        assert narrow.meta_width < wide.meta_width
        requests = {"narrow": [narrow], "wide": [wide]}
        narrow, wide = "narrow", "wide"
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
            (requests[name][0].meta_width, "meta") for name in (narrow, wide)
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
# One plan per phase, verified per row key
# ----------------------------------------------------------------------
class TestPerShapeVerification:
    def test_a_failed_verify_retires_only_its_width(
        self, untrained_model, featurizer, tiny_corpus, monkeypatch
    ):
        """A row whose key fails verification is answered by its eager
        reference from then on; rows of other keys in the same forwards
        keep replaying."""
        metrics = MetricsRegistry()
        requests = _phase1_requests(featurizer, _spread_tables(tiny_corpus.registry, 4))
        lengths = sorted({request.meta_width for request in requests})
        assert len(lengths) >= 2
        bad = lengths[0]
        reference = _run(untrained_model, requests, compiled=False)
        matches = nn_compile.CompiledPlan._matches

        def fails_at_bad(plan, outputs, expected):
            if plan.phase == 1 and outputs[1][0].shape[0] == bad:
                return False
            return matches(plan, outputs, expected)

        monkeypatch.setattr(nn_compile.CompiledPlan, "_matches", fails_at_bad)
        rows = sum(request.meta_width == bad for request in requests)
        for _ in range(2):
            compiled = _run(untrained_model, requests, batched=True, metrics=metrics)
            _assert_phase1_bitwise(reference, compiled)
        plan = nn_compile.plan_cache(untrained_model)[1]
        assert plan.dead == {(bad, "meta")}
        assert plan.verified == {(length, "meta") for length in lengths[1:]}
        assert metrics.counter("nn.compile.fallbacks", reason="verify").value == 1
        assert _fallbacks(metrics) == 2 * rows
        forwards = metrics.counter("sched.forwards").value
        assert metrics.counter("nn.compile.replays", phase="1").value == forwards

    def test_one_verify_per_shape(
        self, untrained_model, featurizer, tiny_corpus, monkeypatch
    ):
        """Every row key is verified once, against its table's eager
        forward alone, and never again."""
        tables = _spread_tables(tiny_corpus.registry)
        verifies = []
        eager_forward = sched_forward.eager_forward

        def spy(model, phase, encoded, cached=None):
            key = (len(encoded.meta.token_ids), "meta")
            if phase == 2:
                mode = "recompute" if cached is None else "cached"
                key = (len(encoded.meta.token_ids), len(encoded.content.token_ids), mode)
            verifies.append((phase, key))
            return eager_forward(model, phase, encoded, cached)

        monkeypatch.setattr(sched_forward, "eager_forward", spy)
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
        assert len({key for phase, key in verifies if phase == 1}) >= 3
        assert len({key for phase, key in verifies if phase == 2}) >= 3
        assert len(verifies) == len(set(verifies))
        assert set(verifies) == {
            (phase, key) for phase, plan in plans.items() for key in plan.verified
        }
        for phase in ("1", "2"):
            assert metrics.counter("nn.compile.replays", phase=phase).value > 0
        assert _fallbacks(metrics) == 0


def _encodings(model, featurizer, tables):
    """Phase-1 and Phase-2 encodings of ``tables`` and each table's
    Phase-1 latents, from the eager forward of its table alone."""
    encoded1 = [
        featurizer.encode_offline(table, with_content=False, with_labels=False) for table in tables
    ]
    encoded2 = [featurizer.encode_offline(table, with_labels=False) for table in tables]
    cached = [
        CachedEncoding([layer[None].copy() for layer in sched_forward.eager_forward(model, 1, e)[1]])
        for e in encoded1
    ]
    return encoded1, encoded2, cached


def _replay(plan, model, encoded, latents, events):
    """``plan.run`` with the eager forward of one table as its reference."""
    reference = functools.partial(sched_forward.eager_forward, model, plan.phase)
    return plan.run(model, encoded, latents, events, reference)


class TestSlicedVerification:
    """The reference is the eager forward of each table alone, at its real
    widths, on the batch ``collate`` makes of that table."""

    @pytest.mark.parametrize("phase", [1, 2])
    @pytest.mark.parametrize("size", [1, 2, 5])
    def test_sliced_reference_equals_the_whole_batch_forward(
        self, untrained_model, featurizer, tiny_corpus, size, phase
    ):
        """Each row of a whole-batch replay equals its table's eager
        reference, which equals the model's forward of that table
        collated alone."""
        tables = _spread_tables(tiny_corpus.registry)[:size]
        encoded1, encoded2, cached = _encodings(untrained_model, featurizer, tables)
        encoded = encoded1 if phase == 1 else encoded2
        modes = [None] if phase == 1 else [cached, [None] * size]
        for latents in modes:
            events = []
            whole = _replay(
                nn_compile.CompiledPlan(phase, untrained_model.config),
                untrained_model, encoded, latents, events,
            )
            assert events == [("replay", phase)]
            for row, table in enumerate(encoded):
                alone = collate([table])
                columns = table.num_columns
                reference = sched_forward.eager_forward(
                    untrained_model, phase, table, None if latents is None else latents[row]
                )
                with nn.no_grad():
                    meta_layers = untrained_model.encode_metadata(alone)
                    if phase == 1:
                        logits = untrained_model.meta_logits(alone, meta_layers).data
                        expected = [logits[0, :columns], *(layer.data[0] for layer in meta_layers)]
                    else:
                        content = untrained_model.encode_content(alone, meta_layers)
                        logits = untrained_model.content_logits(alone, meta_layers, content).data
                        expected = [logits[0, :columns]]
                if phase == 1:
                    got = [[whole[row][0], *whole[row][1]], [reference[0], *reference[1]]]
                else:
                    got = [[whole[row]], [reference]]
                for arrays in got:
                    assert [a.tobytes() for a in arrays] == [a.tobytes() for a in expected]

    @pytest.mark.parametrize("phase", [1, 2])
    def test_a_mismatch_in_the_last_row_retires_the_shape(
        self, untrained_model, featurizer, tiny_corpus, monkeypatch, phase
    ):
        """A replay wrong only in the last row of a 5-row batch retires
        that row's key alone, and the forward hands back the correct eager
        outputs."""
        tables = tiny_corpus.tables[:5]
        encoded1, encoded2, cached = _encodings(untrained_model, featurizer, tables)
        encoded = encoded1 if phase == 1 else encoded2
        name = "_replay_phase1" if phase == 1 else "_replay_phase2"
        replay = getattr(nn_compile.CompiledPlan, name)

        def planted(plan, *args):
            outputs = replay(plan, *args)
            logits = outputs[-1][0] if plan.phase == 1 else outputs[-1]
            logits[0, 0] = np.nextafter(logits[0, 0], np.inf)
            return outputs

        monkeypatch.setattr(nn_compile.CompiledPlan, name, planted)
        latents = None if phase == 1 else cached
        expected = [
            sched_forward.eager_forward(
                untrained_model, phase, table, None if latents is None else latents[row]
            )
            for row, table in enumerate(encoded)
        ]
        events = []
        plan = nn_compile.plan_cache(untrained_model)[phase]
        got = _replay(plan, untrained_model, encoded, latents, events)
        first = lambda out: out[0] if phase == 1 else out  # noqa: E731
        assert [first(out).tobytes() for out in got] == [first(out).tobytes() for out in expected]
        last = encoded[-1]
        key = (len(last.meta.token_ids), "meta")
        if phase == 2:
            key = (len(last.meta.token_ids), len(last.content.token_ids), "cached")
        assert key in plan.dead
        assert key not in plan.verified
        assert ("fallback", "verify") in events


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
