"""Failure injection and edge cases across the stack."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DetectorConfig, TasteDetector, ThresholdPolicy
from repro.datagen import Column, Table
from repro.db import CloudDatabaseServer, CostModel
from repro.features import FeatureConfig, Featurizer

FAST = CostModel(time_scale=0.0)


class TestDetectorFailures:
    def test_unknown_table_raises_cleanly(self, trained_model, featurizer, tiny_corpus):
        server = CloudDatabaseServer.from_tables(tiny_corpus.test, FAST)
        detector = TasteDetector(
            trained_model, featurizer, ThresholdPolicy(0.1, 0.9),
            config=DetectorConfig(pipelined=False),
        )
        with pytest.raises(KeyError):
            detector.detect(server, ["no_such_table"])

    def test_unknown_table_raises_through_pipeline(
        self, trained_model, featurizer, tiny_corpus
    ):
        server = CloudDatabaseServer.from_tables(tiny_corpus.test, FAST)
        detector = TasteDetector(
            trained_model, featurizer, ThresholdPolicy(0.1, 0.9),
            config=DetectorConfig(pipelined=True),
        )
        with pytest.raises(KeyError):
            detector.detect(server, [tiny_corpus.test[0].name, "no_such_table"])

    def test_empty_table_list(self, trained_model, featurizer, tiny_corpus):
        server = CloudDatabaseServer.from_tables(tiny_corpus.test, FAST)
        detector = TasteDetector(
            trained_model, featurizer, config=DetectorConfig(pipelined=False)
        )
        report = detector.detect(server, [])
        assert report.num_columns == 0
        assert report.scanned_ratio() == 0.0


class TestDegenerateTables:
    def make_server(self, table: Table) -> CloudDatabaseServer:
        return CloudDatabaseServer.from_tables([table], FAST)

    def test_single_column_table(self, trained_model, featurizer):
        table = Table(
            "solo", "", [Column("email", "", "varchar", ["a@b.c"] * 10, ["person.email"])]
        )
        report = TasteDetector(
            trained_model, featurizer, ThresholdPolicy(0.0, 1.0),
            config=DetectorConfig(pipelined=False),
        ).detect(self.make_server(table), ["solo"])
        assert report.num_columns == 1
        assert report.predictions[0].phase == 2

    def test_all_empty_cells_column(self, trained_model, featurizer):
        """A column whose first-m rows are all empty still gets a decision."""
        table = Table(
            "empties",
            "",
            [
                Column("mystery", "", "varchar", [""] * 30, ["person.email"]),
                Column("age", "", "int", ["42"] * 30, ["person.age"]),
            ],
        )
        report = TasteDetector(
            trained_model, featurizer, ThresholdPolicy(0.0, 1.0),
            config=DetectorConfig(pipelined=False),
        ).detect(self.make_server(table), ["empties"])
        assert report.num_columns == 2
        assert all(np.isfinite(p.probabilities).all() for p in report.predictions)

    def test_unicode_and_odd_values(self, trained_model, featurizer):
        table = Table(
            "odd",
            "",
            [
                Column(
                    "data",
                    "",
                    "varchar",
                    ["深圳", "naïve", "💳 4111", "\t", "a" * 500] * 6,
                    [],
                )
            ],
        )
        report = TasteDetector(
            trained_model, featurizer, ThresholdPolicy(0.0, 1.0),
            config=DetectorConfig(pipelined=False),
        ).detect(self.make_server(table), ["odd"])
        assert report.num_columns == 1

    def test_very_wide_table_split_and_rejoined(self, trained_model, tokenizer, tiny_corpus):
        columns = [
            Column(f"col_{i}", "", "int", [str(i)] * 10, ["person.age"])
            for i in range(30)
        ]
        table = Table("wide", "", columns)
        featurizer = Featurizer(
            tokenizer, tiny_corpus.registry, FeatureConfig(column_split_threshold=4)
        )
        report = TasteDetector(
            trained_model, featurizer, ThresholdPolicy(0.1, 0.9),
            config=DetectorConfig(pipelined=False),
        ).detect(self.make_server(table), ["wide"])
        assert report.num_columns == 30
        assert [p.column_name for p in report.predictions] == [
            f"col_{i}" for i in range(30)
        ]
