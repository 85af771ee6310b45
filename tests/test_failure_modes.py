"""Failure injection and edge cases across the stack."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DetectorConfig, TasteDetector, ThresholdPolicy
from repro.datagen import Column, Table
from repro.db import CloudDatabaseServer, CostModel
from repro.features import FeatureConfig, Featurizer
from repro.serve import DetectionService

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

    def test_zero_column_table_beside_a_normal_one(self, trained_model, featurizer, tiny_corpus):
        """A table without columns reports zero predictions, neither failed
        nor degraded, in a sequential run, a pipelined run and a service
        job; the table beside it is bitwise what it is in a run alone."""
        normal = tiny_corpus.test[0]
        server = CloudDatabaseServer.from_tables([normal, Table("empty", "", [])], FAST)
        names = [normal.name, "empty"]

        def rows(result):
            return [
                (p.column_name, tuple(p.admitted_types), p.phase, p.probabilities.tobytes())
                for p in result.predictions
            ]

        def check(report, expected):
            results = {result.table_name: result for result in report.tables}
            empty = results["empty"]
            assert empty.predictions == []
            assert not empty.failed and not empty.degraded and empty.error is None
            assert rows(results[normal.name]) == expected

        for pipelined in (False, True):
            detector = TasteDetector(
                trained_model, featurizer, ThresholdPolicy(0.1, 0.9),
                config=DetectorConfig(pipelined=pipelined),
            )
            expected = rows(detector.detect(server, [normal.name]).tables[0])
            assert expected
            check(detector.detect(server, names), expected)
        with DetectionService(detector) as service:
            check(service.submit("tenant-a", server, names).result(timeout=60.0), expected)

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
