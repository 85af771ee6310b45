"""Table 3 — precision/recall/F1 of all approaches on both corpora.

Also the data source for Fig. 5 (ratio of scanned columns): the same
detection runs produce both metrics, so they are computed once per scale
and memoized in-process.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..baselines import BaselineDetector
from ..core import DetectorConfig, TasteDetector, ThresholdPolicy
from ..metrics import ground_truth_map, micro_prf, render_table
from .common import (
    Scale,
    get_baseline_model,
    get_corpus,
    get_scale,
    get_taste_model,
    make_server,
)

__all__ = ["ApproachResult", "Table3Result", "run", "render", "evaluate_corpus"]

APPROACHES = ("turl", "doduo", "taste", "taste_hist", "taste_sampling")

_LABELS = {
    "turl": "TURL",
    "doduo": "Doduo",
    "taste": "TASTE",
    "taste_hist": "TASTE w/ histogram",
    "taste_sampling": "TASTE w/ sampling",
}


@dataclass(frozen=True)
class ApproachResult:
    """One approach's quality + intrusiveness on one corpus."""

    corpus: str
    approach: str
    precision: float
    recall: float
    f1: float
    scanned_ratio: float


@dataclass
class Table3Result:
    results: list[ApproachResult]

    def rows_for(self, corpus: str) -> list[ApproachResult]:
        return [r for r in self.results if r.corpus == corpus]

    def get(self, corpus: str, approach: str) -> ApproachResult:
        for result in self.results:
            if result.corpus == corpus and result.approach == approach:
                return result
        raise KeyError((corpus, approach))

    def render(self) -> str:
        blocks = []
        for corpus in ("wikitable", "gittables"):
            rows = [
                [
                    _LABELS[r.approach],
                    f"{r.precision:.4f}",
                    f"{r.recall:.4f}",
                    f"{r.f1:.4f}",
                ]
                for r in self.rows_for(corpus)
            ]
            blocks.append(
                render_table(
                    ["Model", "Precision", "Recall", "F1"],
                    rows,
                    title=f"Table 3 ({corpus} dataset)",
                )
            )
        return "\n\n".join(blocks)


_MEMO: dict[tuple[str, str], list[ApproachResult]] = {}


def evaluate_corpus(corpus_name: str, scale: Scale) -> list[ApproachResult]:
    """All five approaches on one corpus (memoized per scale)."""
    key = (corpus_name, scale.name)
    if key in _MEMO:
        return _MEMO[key]

    corpus = get_corpus(corpus_name, scale)
    ground_truth = ground_truth_map(corpus.test)
    results = []

    for approach in APPROACHES:
        if approach in ("turl", "doduo"):
            model, featurizer = get_baseline_model(corpus, scale, approach)
            detector = BaselineDetector(model, featurizer)
            report = detector.detect(make_server(corpus.test))
        else:
            use_histogram = approach == "taste_hist"
            model, featurizer = get_taste_model(corpus, scale, use_histogram)
            detector = TasteDetector(
                model,
                featurizer,
                ThresholdPolicy(0.1, 0.9),
                config=DetectorConfig(
                    pipelined=False,
                    scan_method="sample" if approach == "taste_sampling" else "first",
                ),
            )
            report = detector.detect(make_server(corpus.test, analyze=use_histogram))

        prf = micro_prf(report.predicted_labels(), ground_truth)
        results.append(
            ApproachResult(
                corpus=corpus_name,
                approach=approach,
                precision=prf.precision,
                recall=prf.recall,
                f1=prf.f1,
                scanned_ratio=report.scanned_ratio(),
            )
        )

    _MEMO[key] = results
    return results


def run(scale: Scale | None = None) -> Table3Result:
    scale = scale or get_scale()
    results = []
    for corpus_name in ("wikitable", "gittables"):
        results.extend(evaluate_corpus(corpus_name, scale))
    return Table3Result(results)


def render(scale: Scale | None = None) -> str:
    return run(scale).render()
