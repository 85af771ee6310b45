"""The five workloads: inputs, set-up, measurement loops, output checks.

Everything here runs in the per-workload child process
(:mod:`worker`). The seed drives corpus generation, model init and the
serve job sequence; the program under test only ever sees the generated
inputs. Each loop does fixed work per unit (one ``detect()`` over the
whole corpus, or one 4-table job) so medians of unit walls compare
across commits whatever the run length.
"""

from __future__ import annotations

import hashlib
import statistics
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from repro.core import (
    ADTDConfig,
    ADTDModel,
    BatchingConfig,
    CompileConfig,
    DetectionReport,
    DetectorConfig,
    RuntimeConfig,
    TableResult,
    TasteDetector,
    ThresholdPolicy,
)
from repro.datagen import (
    Table,
    TableGenConfig,
    TypeRegistry,
    default_registry,
    generate_table,
    make_gittables_corpus,
    make_wikitable_corpus,
)
from repro.db import CloudDatabaseServer, CostModel
from repro.experiments.common import encoder_config, paper_cost_model
from repro.features import FeatureConfig, Featurizer, corpus_texts
from repro.obs import MetricsRegistry, Tracer, global_registry
from repro.serve import DetectionService, ServiceConfig, TenantQuota
from repro.text import Tokenizer

__all__ = ["WORKLOADS", "Budget", "Measured", "Ready", "set_up", "measure", "end_to_end"]

VOCAB_SIZE = 2500  # the `small` scale of repro.experiments.common
MIN_PASSES = 3  # a duration budget still takes enough passes for quartiles
TENANTS = 4
CLIENTS = 2  # closed loop; never more load-generator threads than cores
TABLES_PER_JOB = 4
RESULT_TIMEOUT_S = 60.0
RHO_TOLERANCE = 0.005

# The reference a timed run must reproduce bit for bit: no threads, no
# batcher, no compiled plans (ROADMAP invariant: predictions do not depend
# on batching, threading or tenancy).
REFERENCE_CONFIG = DetectorConfig(
    pipelined=False,
    batching=BatchingConfig(enabled=False),
    compile=CompileConfig(enabled=False),
)


def _wiki(seed: int) -> tuple[list[Table], TypeRegistry]:
    corpus = make_wikitable_corpus(200, seed=seed)
    return corpus.tables, corpus.registry


def _wiki_half(seed: int) -> tuple[list[Table], TypeRegistry]:
    tables, registry = _wiki(seed)
    return tables[:100], registry


def _git(seed: int) -> tuple[list[Table], TypeRegistry]:
    corpus = make_gittables_corpus(200, seed=seed + 1)
    return corpus.tables, corpus.registry


def _wide(seed: int) -> tuple[list[Table], TypeRegistry]:
    # The TableGenConfig of benchmarks/test_throughput_batching.py, so the
    # numbers continue the BENCH_throughput.json rows.
    registry = default_registry()
    rng = np.random.default_rng(seed)
    config = TableGenConfig(
        min_columns=24,
        max_columns=48,
        min_rows=20,
        max_rows=30,
        ambiguous_name_prob=0.9,
        comment_prob=0.15,
    )
    tables = [generate_table(registry, config, rng, table_id=i) for i in range(32)]
    return tables, registry


@dataclass(frozen=True)
class Workload:
    """One set of inputs. ``rho`` is the Phase-2 share set by calibration."""

    name: str
    corpus: Callable[[int], tuple[list[Table], TypeRegistry]]
    rho: float
    features: FeatureConfig = FeatureConfig()
    cost_model: CostModel = CostModel(time_scale=0.0)
    serve: bool = False
    traced_units: int = 3  # passes of the traced run (jobs per client)
    quick_units: int = 1  # passes (jobs per client) of every --quick run


WORKLOADS = {
    w.name: w
    for w in (
        Workload("wiki_cpu", _wiki, rho=0.45),
        Workload("git_cpu", _git, rho=0.02),
        Workload(
            "wide_cpu", _wide, rho=0.45, features=FeatureConfig(column_split_threshold=4)
        ),
        Workload("wiki_netio", _wiki_half, rho=0.45, cost_model=paper_cost_model(1.0)),
        Workload(
            "serve_mix", _wiki, rho=0.45, serve=True, traced_units=100, quick_units=20
        ),
    )
}


class Budget(NamedTuple):
    """How long a measurement loop runs: a duration, or a count (``--quick``)."""

    seconds: float | None = None
    count: int | None = None

    def more(self, done: int, started: float, minimum: int = 0) -> bool:
        if self.count is not None:
            return done < self.count
        return done < minimum or time.perf_counter() - started < self.seconds


# ----------------------------------------------------------------------
# Output digests
# ----------------------------------------------------------------------
def table_digest(result: TableResult) -> str:
    digest = hashlib.sha256()
    rows = sorted(
        (p.table_name, p.column_name, p.phase, tuple(p.admitted_types),
         p.probabilities.tobytes())
        for p in result.predictions
    )
    for *head, raw in rows:
        digest.update(repr(head).encode())
        digest.update(raw)
    return digest.hexdigest()


def pred_digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class Ready:
    """A warm detector (and service) plus what its outputs are checked against."""

    spec: Workload
    seed: int
    tables: list[Table]
    detector: TasteDetector
    metrics: MetricsRegistry
    alpha: float
    reference: dict[str, str]  # table name -> table_digest of the reference run
    num_columns: int
    service: DetectionService | None = None
    tenant_servers: list[CloudDatabaseServer] = field(default_factory=list)

    def server(self) -> CloudDatabaseServer:
        """A fresh server (fresh ledger) reporting into this run's registry."""
        return CloudDatabaseServer.from_tables(
            self.tables, self.spec.cost_model, metrics=self.metrics
        )

    def counters(self) -> dict[str, dict]:
        """Snapshot of every counter the program emits for this run.

        The token-encode cache and the nn memos report to the global
        registry whatever the detector is given, so both are read. Never
        ``reset()`` either: the batcher, caches and plan cache captured
        their instrument handles at construction and a reset orphans them.
        """
        return {**global_registry().snapshot(), **self.metrics.snapshot()}

    def close(self) -> None:
        if self.service is not None:
            self.service.stop(drain=True)


def set_up(spec: Workload, seed: int) -> Ready:
    """Corpus, tokenizer, model, calibration, reference run, warm-up pass."""
    tables, registry = spec.corpus(seed)
    tokenizer = Tokenizer.train(corpus_texts(tables), max_size=VOCAB_SIZE)
    featurizer = Featurizer(tokenizer, registry, spec.features)
    encoder = replace(encoder_config(len(tokenizer)), dropout_p=0.0)
    # Untrained on purpose: cost depends on shapes and on the Phase-2 share,
    # which calibration sets exactly, not on weight values.
    model = ADTDModel(ADTDConfig(encoder, num_labels=registry.num_labels), seed=seed)
    metrics = MetricsRegistry()
    runtime = RuntimeConfig(tracer=Tracer(enabled=False), metrics=metrics)
    free = CostModel(time_scale=0.0)  # set-up never sleeps, whatever the workload

    def fresh_server() -> CloudDatabaseServer:
        return CloudDatabaseServer.from_tables(tables, free, metrics=metrics)

    # Calibration: the (1 - rho) quantile of each column's top Phase-1
    # probability; with beta = 1 a column goes to Phase 2 iff that top
    # probability exceeds alpha, so scanned_ratio == rho.
    calibration = TasteDetector(
        model, featurizer, ThresholdPolicy.privacy_mode(),
        config=REFERENCE_CONFIG, runtime=runtime,
    ).detect(fresh_server())
    top = np.sort([p.probabilities.max() for p in calibration.predictions])[::-1]
    alpha = float(top[round(spec.rho * len(top))])
    policy = ThresholdPolicy(alpha=alpha, beta=1.0)

    reference = TasteDetector(
        model, featurizer, policy, config=REFERENCE_CONFIG, runtime=runtime
    ).detect(fresh_server())
    # Built last: a detector with compile disabled detaches the model's plan
    # cache, and this one (the shipped defaults) must keep its own attached.
    detector = TasteDetector(
        model, featurizer, policy, config=DetectorConfig(), runtime=runtime
    )
    detector.detect(fresh_server())  # warm-up: plan cache, memos, token cache

    ready = Ready(
        spec=spec,
        seed=seed,
        tables=tables,
        detector=detector,
        metrics=metrics,
        alpha=alpha,
        reference={t.table_name: table_digest(t) for t in reference.tables},
        num_columns=reference.num_columns,
    )
    if spec.serve:
        ready.tenant_servers = [ready.server() for _ in range(TENANTS)]
        ready.service = DetectionService(
            detector,
            ServiceConfig(
                max_queue_depth=64,
                default_quota=TenantQuota(rate_tables_per_s=1e6, burst_tables=10**6),
            ),
        ).start()
    return ready


# ----------------------------------------------------------------------
# Measurement loops
# ----------------------------------------------------------------------
@dataclass
class Measured:
    """What one loop observed. A unit is a pass, or a job on ``serve_mix``."""

    unit_walls: list[float] = field(default_factory=list)
    window_s: float = 0.0
    columns: int = 0
    attempted: int = 0  # tables, plus jobs on serve_mix
    failed: int = 0  # tables failed or degraded, jobs rejected/errored/timed out
    scanned_ratio: float = 0.0
    digest_lines: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def pred_digest(self) -> str:
        return pred_digest(self.digest_lines)


def _check_tables(
    ready: Ready, report: DetectionReport, out: Measured, where: str
) -> list[str]:
    """Per-table output checks shared by passes and jobs; the digest lines."""
    out.attempted += len(report.tables)
    lines = []
    for table in report.tables:
        digest = table_digest(table)
        lines.append(f"{table.table_name}:{digest}")
        if table.failed or table.degraded:
            out.failed += 1
            out.errors.append(f"{where}: table {table.table_name} failed or degraded")
        elif digest != ready.reference[table.table_name]:
            out.errors.append(
                f"{where}: table {table.table_name} differs from the sequential reference"
            )
    return lines


def run_direct(ready: Ready, budget: Budget) -> Measured:
    """Closed loop of whole-corpus ``detect()`` calls on one warm detector."""
    out = Measured()
    ratios = set()
    started = time.perf_counter()
    while budget.more(len(out.unit_walls), started, MIN_PASSES):
        server = ready.server()  # fresh ledger, built outside the timed region
        t0 = time.perf_counter()
        report = ready.detector.detect(server)
        out.unit_walls.append(time.perf_counter() - t0)
        where = f"pass {len(out.unit_walls)}"
        out.digest_lines = _check_tables(ready, report, out, where)
        out.columns += report.num_columns
        if report.num_columns != ready.num_columns:
            out.errors.append(
                f"{where}: {report.num_columns} columns, corpus has {ready.num_columns}"
            )
        ratios.add(report.scanned_ratio())
    out.window_s = sum(out.unit_walls)
    out.scanned_ratio = max(ratios)
    if len(ratios) != 1 or abs(out.scanned_ratio - ready.spec.rho) > RHO_TOLERANCE:
        out.errors.append(
            f"scanned_ratio {sorted(ratios)} not one value within "
            f"{RHO_TOLERANCE} of rho={ready.spec.rho}"
        )
    return out


def run_serve(ready: Ready, budget: Budget) -> Measured:
    """Two closed-loop clients submitting seeded 4-table jobs to one service."""
    service = ready.service
    assert service is not None
    names = [table.name for table in ready.tables]
    reports: list[list[DetectionReport]] = [[] for _ in range(CLIENTS)]
    latencies: list[list[float]] = [[] for _ in range(CLIENTS)]
    failures: list[list[str]] = [[] for _ in range(CLIENTS)]
    started = time.perf_counter()

    def client(index: int) -> None:
        rng = np.random.default_rng([ready.seed, index])
        done = 0
        while budget.more(done, started):
            tenant = 2 * index + done % 2  # alternate between this client's two
            first = int(rng.integers(0, len(names) - TABLES_PER_JOB + 1))
            done += 1
            t0 = time.perf_counter()
            try:
                handle = service.submit(
                    f"tenant-{tenant}",
                    ready.tenant_servers[tenant],
                    names[first : first + TABLES_PER_JOB],
                )
                report = handle.result(timeout=RESULT_TIMEOUT_S)
            except Exception as error:  # noqa: BLE001 - rejected, errored or
                # timed out: whatever the program raised, the job failed and
                # the client keeps going.
                failures[index].append(f"client {index} job {done}: {error!r}")
                continue
            latencies[index].append(time.perf_counter() - t0)
            reports[index].append(report)

    threads = [
        threading.Thread(target=client, args=(i,), name=f"bench-client-{i}")
        for i in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    out = Measured(window_s=time.perf_counter() - started)
    scanned = 0
    for index in range(CLIENTS):
        out.unit_walls.extend(latencies[index])
        out.failed += len(failures[index])
        out.errors.extend(failures[index])
        out.attempted += len(latencies[index]) + len(failures[index])
        for number, report in enumerate(reports[index], start=1):
            lines = _check_tables(ready, report, out, f"client {index} job {number}")
            out.digest_lines.extend(f"{index}/{number}/{line}" for line in lines)
            out.columns += report.num_columns
            scanned += sum(t.num_uncertain for t in report.tables)
    out.scanned_ratio = scanned / out.columns if out.columns else 0.0
    if service.queue_depth != 0:
        out.errors.append(f"service queue_depth {service.queue_depth} after the run")
    return out


def measure(ready: Ready, budget: Budget) -> Measured:
    return run_serve(ready, budget) if ready.spec.serve else run_direct(ready, budget)


# ----------------------------------------------------------------------
# End-to-end metrics
# ----------------------------------------------------------------------
def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def end_to_end(ready: Ready, measured: Measured) -> dict[str, float]:
    """The timing metrics of BENCHMARK.json (set-up and memory are the worker's).

    A *job* is one unit of submitted work: a 4-table service job on
    ``serve_mix``, one whole-corpus ``detect()`` call elsewhere. Direct
    workloads report rates from the median pass wall; ``serve_mix`` from
    the window both clients were running.

    ``job_latency_ms_p95`` is a 95th percentile only on ``serve_mix``
    (hundreds of jobs a run). A direct run has 4 to 25 passes, whose p95 is
    its slowest or second-slowest pass: one host stall sets it (spread 0.26
    to 0.59 over ten runs of ``git_cpu`` on the build machine). There the
    metric reads the upper quartile of the pass walls, the highest tail
    figure that few samples support.
    """
    walls = sorted(measured.unit_walls)
    median = statistics.median(walls)
    if ready.spec.serve:
        cols_per_s = measured.columns / measured.window_s
        jobs_per_s = len(walls) / measured.window_s
        tail = walls[int(0.95 * (len(walls) - 1))]  # lower nearest rank
    else:
        cols_per_s = ready.num_columns / median
        jobs_per_s = 1.0 / median
        tail = quartiles(walls)[2]
    return {
        "cols_per_s": cols_per_s,
        "jobs_per_s": jobs_per_s,
        "job_latency_ms_p50": median * 1e3,
        "job_latency_ms_p95": tail * 1e3,
    }
