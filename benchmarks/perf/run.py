"""The repo's perf benchmark: five workloads on the shipped detector defaults.

Human use (prints every metric of BENCHMARK.json by name, with unit and
sample counts, checks outputs, exits non-zero on any check failure)::

    python benchmarks/perf/run.py [--seed S] [--workload W]... [--quick]
    python benchmarks/perf/run.py --repeat 10 --label parent
    python benchmarks/perf/run.py --compare out/parent.json out/change.json

Driver contract (one workload, one JSON object on the last line)::

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

Each workload runs in fresh child processes (``worker.py``), one after
the other, never concurrently: a few that only set up (``setup_s`` is
the median over them) and one that sets up, measures with tracing off
and, when per-layer numbers are wanted, makes a separate short traced
run. This file imports neither numpy nor the program, so the BLAS thread
pins below are in the child's environment before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
BASELINE = HERE / "baseline.json"

SETUP_RUNS = 3  # fresh-process set-ups per run; setup_s is their median
RUN_TIMEOUT_S = 170  # all children of a run together: the driver allows 180 s
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child(workload: str, seed: int, deadline: float, *extra: str) -> dict[str, Any]:
    """Run ``worker.py`` once; its last stdout line is the result.

    The child is killed, and this process fails, at ``deadline``
    (``time.monotonic()``).
    """
    env = dict(os.environ)
    for pin in BLAS_PINS:
        env[pin] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--spawned-at", repr(time.time()), *extra,
    ]
    done = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True,
        timeout=deadline - time.monotonic(),
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload}: worker exited {done.returncode} without a result")
    return json.loads(lines[-1])


def run_workload(
    workload: str, seed: int, *, seconds: float, quick: bool, traced: bool, timed: bool = True
) -> dict[str, Any]:
    """All the children of one workload; the main child's result, completed.

    ``timed=False`` (the driver's ``--trace 1``) skips the set-up-only
    children and halves the untraced run, which is then only the base of
    ``obs.trace_overhead_pct``.
    """
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = []
    if timed and not quick:
        setups = [
            _child(workload, seed, deadline, "--setup-only")["setup_s"]
            for _ in range(SETUP_RUNS - 1)
        ]
    budget = ["--quick"] if quick else ["--seconds", repr(seconds if timed else seconds / 2)]
    result = _child(workload, seed, deadline, *budget, *(["--traced"] if traced else []))
    setups.append(result["setup_s"])
    result["setup_samples_s"] = setups
    if "end_to_end" in result:
        result["end_to_end"]["setup_s"] = statistics.median(setups)
    return result


# ----------------------------------------------------------------------
# Printing and result files
# ----------------------------------------------------------------------
def _print_workload(result: dict[str, Any], benchmark: dict[str, Any]) -> None:
    samples, checks = result["samples"], result["checks"]
    q1, q2, q3 = samples["unit_wall_quartiles_ms"]
    print(f"\n== {result['workload']} (seed {result['seed']}) ==")
    print(
        f"  samples: {samples['units']} {samples['unit']} walls in {samples['window_s']:.2f} s; "
        f"{samples['unit']} wall quartiles {q1:.1f} / {q2:.1f} / {q3:.1f} ms; "
        f"{len(result['setup_samples_s'])} set-ups"
    )
    print(
        f"  attempted {result['attempted']}, succeeded "
        f"{result['attempted'] - result['failed']}, failed {result['failed']} "
        f"(fail_share {result['fail_share']:.4f} ratio)"
    )
    print(
        f"  checks: pred_digest {checks['pred_digest'][:16]}, scanned_ratio "
        f"{checks['scanned_ratio']:.4f} (rho {checks['rho']}), "
        f"{checks['num_columns']} columns"
    )
    print("  end to end:")
    for metric in benchmark["end_to_end"]:
        value = result["end_to_end"][metric["name"]]
        note = ""
        if metric["name"] == "job_latency_ms_p95" and samples["unit"] == "pass":
            note = f"  (upper quartile: {samples['units']} passes support no p95)"
        print(f"    {metric['name']:<22} {value:>12.4f} {metric['unit']}{note}")
    if "per_layer" in result:
        print("  per layer (traced run; per pass, per 100 jobs on serve_mix):")
        for metric in benchmark["per_layer"]:
            value = result["per_layer"][metric["name"]]
            print(f"    {metric['name']:<42} {value:>14.6g} {metric['unit']}")
    for error in result.get("errors", []):
        print(f"  CHECK FAILED: {error}")


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _append_baseline(record: dict[str, Any]) -> None:
    """Add this run set's medians under its commit; never overwrite."""
    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    workloads = {}
    for name in record["runs"][0]:
        runs = [run[name] for run in record["runs"]]
        workloads[name] = {
            "end_to_end": {
                metric: statistics.median(run["end_to_end"][metric] for run in runs)
                for metric in runs[0]["end_to_end"]
            },
            "per_layer": runs[-1].get("per_layer", {}),
            "checks": runs[-1]["checks"],
        }
    baseline.setdefault(record["commit"], []).append(
        {
            "seed": record["seed"],
            "runs": len(record["runs"]),
            "env": record["env"],
            "workloads": workloads,
        }
    )
    BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: all five")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]),
                        help="length of the untraced measurement of each workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver contract: print one JSON object, end-to-end (0) "
                             "or per-layer (1) metrics")
    parser.add_argument("--quick", action="store_true",
                        help="1 timed pass, 20 jobs/client, 1 traced pass (smoke test)")
    parser.add_argument("--repeat", type=int, default=1, help="runs in the result file")
    parser.add_argument("--label", default=None, help="result file name under out/")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"), type=Path)
    parser.add_argument("--append-baseline", action="store_true",
                        help="append this run set's medians to baseline.json")
    args = parser.parse_args(argv)

    if args.compare:
        from compare import compare_files

        table, any_worse = compare_files(*args.compare, benchmark)
        print(table)
        return 1 if any_worse else 0

    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    workloads = args.workload or names

    if args.trace is not None:
        if len(workloads) != 1:
            parser.error("--trace takes exactly one --workload")
        result = run_workload(
            workloads[0], args.seed, seconds=args.seconds, quick=args.quick,
            traced=args.trace == 1, timed=args.trace == 0,
        )
        section = "per_layer" if args.trace else "end_to_end"
        for error in result.get("errors", []):
            print(f"CHECK FAILED: {error}", file=sys.stderr)
        print(json.dumps({
            "correct": bool(result.get("correct")),
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                metric["name"]: {
                    "value": result[section][metric["name"]], "unit": metric["unit"]
                }
                for metric in benchmark[section]
            },
        }))
        return 0 if result.get("correct") else 1

    record: dict[str, Any] = {"commit": _commit(), "seed": args.seed, "runs": []}
    ok = True
    for repeat in range(args.repeat):
        run: dict[str, Any] = {}
        for workload in workloads:
            result = run_workload(
                workload, args.seed, seconds=args.seconds, quick=args.quick, traced=True
            )
            _print_workload(result, benchmark)
            ok &= bool(result.get("correct"))
            record.setdefault("env", result.get("env"))
            run[workload] = result
        record["runs"].append(run)
    label = args.label or f"{record['commit'][:12]}-seed{args.seed}"
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"\nresult file: {path}")
    if args.append_baseline and ok:
        _append_baseline(record)
        print(f"appended to {BASELINE}")
    print("all output checks passed" if ok else "OUTPUT CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
