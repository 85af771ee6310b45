"""Child process of ``run.py``: one workload, one seed, one JSON line out.

Set-up, the untraced measurement, then (when asked) a separate short
traced run for the per-layer numbers. ``run.py`` starts this file in a
fresh interpreter with the BLAS thread pins already in the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent / "out"


def _environment() -> dict[str, object]:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.processor() or platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() of the parent just before it started this process")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--quick", action="store_true",
                        help="a fixed, small number of units instead of a duration")
    parser.add_argument("--traced", action="store_true",
                        help="follow the measurement with the traced run")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # Imported here so that set-up time includes them.
    from layers import conservation, layer_metrics
    from shims import Recorder
    from workloads import WORKLOADS, Budget, end_to_end, measure, quartiles, set_up

    from repro.obs.export import span_to_dict

    spec = WORKLOADS[args.workload]
    ready = set_up(spec, args.seed)
    result: dict[str, object] = {
        "workload": spec.name,
        "seed": args.seed,
        # subprocess start -> ready for the first timed pass
        "setup_s": time.time() - args.spawned_at,
    }
    try:
        if args.setup_only:
            return 0
        quick = Budget(count=spec.quick_units)
        untraced = measure(ready, quick if args.quick else Budget(seconds=args.seconds))
        errors = list(untraced.errors)
        result["end_to_end"] = {
            **end_to_end(ready, untraced),
            "setup_s": result["setup_s"],
            # peak of this process after the timed run, before any tracing
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["attempted"] = untraced.attempted
        result["failed"] = untraced.failed
        result["fail_share"] = untraced.failed / untraced.attempted
        result["samples"] = {
            "units": len(untraced.unit_walls),
            "unit": "job" if spec.serve else "pass",
            "unit_wall_quartiles_ms": [1e3 * q for q in quartiles(untraced.unit_walls)],
            "window_s": untraced.window_s,
        }
        result["checks"] = {
            "pred_digest": untraced.pred_digest,
            "scanned_ratio": untraced.scanned_ratio,
            "rho": spec.rho,
            "alpha": ready.alpha,
            "num_columns": ready.num_columns,
        }

        if args.traced:
            tracer = ready.detector.tracer
            before = ready.counters()
            tracer.enabled = True
            try:
                with Recorder() as recorder:
                    traced = measure(
                        ready, quick if args.quick else Budget(count=spec.traced_units)
                    )
            finally:
                tracer.enabled = False
            after = ready.counters()
            errors += [f"traced run: {e}" for e in traced.errors]
            jobs = len(traced.unit_walls) if spec.serve else 0
            result["per_layer"] = layer_metrics(
                recorder.spans,
                before,
                after,
                units=jobs / 100.0 if spec.serve else len(traced.unit_walls),
                wall_s=traced.window_s,
                queue_depths=recorder.queue_depths,
                untraced_median_s=statistics.median(untraced.unit_walls),
                traced_median_s=statistics.median(traced.unit_walls),
            )
            laws = conservation(recorder.spans, before, after, jobs)
            result["conservation"] = laws
            errors += [
                f"conservation broken: {law}: {a} != {b}"
                for law, (a, b) in laws.items()
                if a != b
            ]
            OUT_DIR.mkdir(exist_ok=True)
            with (OUT_DIR / f"{spec.name}.spans.jsonl").open("w") as handle:
                for span in recorder.spans:
                    handle.write(json.dumps(span.to_dict()) + "\n")
                for span in tracer.spans():  # the program's own stage.* spans
                    handle.write(json.dumps(span_to_dict(span), default=str) + "\n")
            tracer.reset()

        result["errors"] = errors
        result["correct"] = not errors
        result["env"] = _environment()
        return 0 if not errors else 1
    finally:
        ready.close()
        print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
