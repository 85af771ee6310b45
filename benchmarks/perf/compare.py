"""Before/after rows from two result files written by ``run.py``.

One row per workload x end-to-end metric: both medians with their
quartiles, the bound BENCHMARK.json fixes for the metric, and a verdict.
Every ratio is printed with its base (the median of the first file).
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any

__all__ = ["summarize", "verdict", "compare_files"]


def summarize(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as the driver computes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    """``better`` / ``within`` / ``worse`` / ``unresolved``.

    ``worse`` when the change's median is worse than the base's by more
    than ``bound`` (a share of the base median). ``unresolved`` when the
    run-to-run spread of either side exceeds the bound, unless every run
    of one side beats every run of the other. ``better`` only when the
    medians differ by more than the base's own quartile distance and the
    change wins at least nine tenths of the pairs (run *i* of one file
    against run *i* of the other, ties counting for neither).
    """
    sign = 1.0 if better == "higher" else -1.0
    b1, b2, b3 = summarize(base)
    c1, c2, c3 = summarize(change)
    gain = sign * (c2 - b2) / b2
    spread = max(b3 - b1, c3 - c1) / b2
    if spread > bound:
        if min(sign * v for v in change) > max(sign * v for v in base):
            return "better"
        if max(sign * v for v in change) < min(sign * v for v in base):
            return "worse"
        return "unresolved"
    if gain < -bound:
        return "worse"
    pairs = list(zip(base, change))
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    if gain > (b3 - b1) / b2 and gain > 0 and wins >= 0.9 * len(pairs):
        return "better"
    return "within"


def _metric_values(result: dict[str, Any], workload: str, metric: str) -> list[float]:
    return [run[workload]["end_to_end"][metric] for run in result["runs"] if workload in run]


def compare_files(path_a: Path, path_b: Path, benchmark: dict[str, Any]) -> tuple[str, bool]:
    """The printed table, and whether any row reads ``worse``."""
    a, b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    lines = [
        f"A = {path_a} (commit {a['commit']}, seed {a['seed']}, {len(a['runs'])} runs)",
        f"B = {path_b} (commit {b['commit']}, seed {b['seed']}, {len(b['runs'])} runs)",
        f"{'workload':<11} {'metric':<19} {'unit':<9} "
        f"{'A median [q1, q3]':<34} {'B median [q1, q3]':<34} "
        f"{'B vs A':<22} {'bound':>6}  verdict",
    ]
    any_worse = False
    for workload in (w["name"] for w in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            base = _metric_values(a, workload, name)
            change = _metric_values(b, workload, name)
            if not base or not change:
                continue
            (a1, a2, a3), (b1, b2, b3) = summarize(base), summarize(change)
            row = verdict(base, change, metric["better"], metric["bound"])
            any_worse |= row == "worse"
            lines.append(
                f"{workload:<11} {name:<19} {metric['unit']:<9} "
                f"{f'{a2:.4g} [{a1:.4g}, {a3:.4g}]':<34} "
                f"{f'{b2:.4g} [{b1:.4g}, {b3:.4g}]':<34} "
                f"{f'{100 * (b2 - a2) / a2:+.1f}% of {a2:.4g}':<22} "
                f"{100 * metric['bound']:>5.0f}%  {row}"
            )
    return "\n".join(lines), any_worse
