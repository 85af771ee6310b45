"""Lock order and leaks across the whole stack, observed at run time.

Every class under ``src/`` that owns a threading lock is instrumented with
:class:`LocksetMonitor` while three runs drive it: a pipelined
``detect()`` on a sleeping server under a fault plan (so prep stages owe
round trips, fault delays and retry backoffs and are parked), a sequential
``detect()`` (once cleanly, once with a forward that raises), and a
three-tenant :class:`DetectionService`. The lock order
observed across all three must be acyclic and must include the edges the
lock discipline is known to create; after each run nothing may be left
held.
"""

from __future__ import annotations

import ast
import threading
from pathlib import Path

import pytest

from repro.analysis import LocksetMonitor
from repro.analysis.races import _TrackedLock
from repro.core import (
    ADTDConfig,
    ADTDModel,
    DetectOptions,
    DetectorConfig,
    RuntimeConfig,
    TasteDetector,
    ThresholdPolicy,
)
from repro.core.pipeline import _StaticSource
from repro.db import CloudDatabaseServer, ConnectionPool
from repro.experiments.common import paper_cost_model
from repro.faults import FaultPlan, FaultRule
from repro.faults.plan import FaultInjector
from repro.features import FeatureConfig, Featurizer
from repro.features.encoding import TokenEncodeCache
from repro.obs import MetricsRegistry, Tracer
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.sched import forward as sched_forward
from repro.serve import DetectionService
from repro.serve.admission import AdmissionController, TokenBucket
from repro.serve.service import _JobConnection, _ServiceSource
from tests.conftest import assert_no_leaked_connections

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

LOCK_OWNERS = (
    ConnectionPool,
    FaultInjector,
    _StaticSource,
    _ServiceSource,
    _JobConnection,
    DetectionService,
    TokenBucket,
    AdmissionController,
    TokenEncodeCache,
    Tracer,
    MetricsRegistry,
    Counter,
    Gauge,
    Histogram,
)

# Edges the lock discipline creates on purpose; each must be observed, so
# a path that stops taking them (or a run that stops reaching them) shows.
EXPECTED_EDGES = {
    ("DetectionService._pools_lock", "MetricsRegistry._lock"),
    ("_JobConnection._connect_lock", "ConnectionPool._lock"),
    ("_JobConnection._connect_lock", "Counter._lock"),
    ("_JobConnection._connect_lock", "FaultInjector._lock"),
    ("_JobConnection._connect_lock", "MetricsRegistry._lock"),
    ("_JobConnection._connect_lock", "_JobConnection._lock"),
    # A job spends its quota only once the queue has taken it.
    ("_ServiceSource.condition", "AdmissionController._lock"),
    ("_ServiceSource.condition", "TokenBucket._lock"),
}

COST_MODEL = paper_cost_model(0.05)


def detect_faults(give_up_table: str) -> FaultPlan:
    """Transient faults are retried with backoff and latency faults delay,
    so prep stages owe waits (and are parked) often;
    one table's content fetch always fails, so it gives up holding
    Phase-1 latents."""
    return FaultPlan(
        seed=5,
        rules=(
            FaultRule("connect", "transient", max_faults=1),
            FaultRule("fetch_metadata", "transient", probability=0.3),
            FaultRule("fetch_values", "transient", probability=0.3),
            FaultRule("fetch_values", "latency", probability=0.5, delay=2**-8),
            FaultRule("fetch_values", "transient", tables=(give_up_table,)),
        ),
    )


# The third tenant connects through the fault injector, not the pool.
CONNECT_FAULTS = FaultPlan(
    seed=7,
    rules=(
        FaultRule("connect", "transient", max_faults=1),
        FaultRule("connect", "latency", delay=2**-8),
    ),
)
TENANT_PLANS = {"tenant-a": None, "tenant-b": None, "tenant-c": CONNECT_FAULTS}

_LOCK_FACTORIES = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}


def _builds_lock(node: ast.AST) -> bool:
    """``threading.Lock()`` and friends, or ``default_factory=threading.Lock``."""
    if isinstance(node, ast.Call):
        node = node.func
    elif isinstance(node, ast.keyword):
        node = node.value
    else:
        return False
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "threading"
        and node.attr in _LOCK_FACTORIES
    )


def _lock_owning_classes() -> set[str]:
    """Classes under ``src/repro`` (the analysis package aside) that build a lock."""
    return {
        cls.name
        for path in SRC.rglob("*.py")
        if path.parent.name != "analysis"
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef) and any(map(_builds_lock, ast.walk(cls)))
    }


def test_every_lock_owner_is_instrumented():
    assert _lock_owning_classes() == {cls.__name__ for cls in LOCK_OWNERS}


def _detector(model, featurizer, metrics, tracer, pipelined):
    return TasteDetector(
        model,
        featurizer,
        # An untrained model is uncertain everywhere: every column goes to
        # Phase 2, so every table hands latents from P1 to P2.
        ThresholdPolicy(0.1, 0.9),
        config=DetectorConfig(pipelined=pipelined),
        runtime=RuntimeConfig(metrics=metrics, tracer=tracer),
    )


def _server(tables, metrics):
    return CloudDatabaseServer.from_tables(tables, COST_MODEL, metrics=metrics)


@pytest.fixture()
def module_lock_owners(monkeypatch):
    """Swap the module-level lock owners for instances built now (inside
    the instrumentation), so their locks are tracked too."""

    def install(monitor):
        import repro.nn.compile as nn_compile
        import repro.obs.metrics as obs_metrics

        monkeypatch.setattr(obs_metrics, "_GLOBAL", MetricsRegistry())
        monkeypatch.setattr(
            nn_compile,
            "_CACHES_LOCK",
            _TrackedLock(threading.Lock(), monitor, "compile._CACHES_LOCK"),
        )

    return install


def test_whole_stack_lock_order_is_acyclic(
    tiny_encoder, tiny_corpus, tokenizer, table_jobs, module_lock_owners, monkeypatch
):
    tables = tiny_corpus.tables[:4]
    names = [table.name for table in tables]
    monitor = LocksetMonitor()
    with monitor.instrument(*LOCK_OWNERS):
        module_lock_owners(monitor)
        metrics = MetricsRegistry()
        tracer = Tracer()
        model = ADTDModel(
            ADTDConfig(tiny_encoder, num_labels=tiny_corpus.registry.num_labels), seed=0
        )
        featurizer = Featurizer(tokenizer, tiny_corpus.registry, FeatureConfig())
        pipelined = _detector(model, featurizer, metrics, tracer, pipelined=True)

        # 1. Pipelined detect() on a sleeping server, under faults.
        plan = detect_faults(give_up_table=names[1])
        report = pipelined.detect(
            _server(tables, metrics), names, options=DetectOptions(fault_plan=plan)
        )
        assert report.retries > 0
        assert [table.degraded for table in report.tables] == [False, True, False, False]
        assert metrics.counter("pipeline.db_waits", pool="prep").value > 0
        assert_no_leaked_connections(table_jobs=table_jobs)

        # 2. Sequential detect().
        sequential = _detector(model, featurizer, metrics, tracer, pipelined=False)
        report = sequential.detect(_server(tables, metrics), names)
        assert report.ok
        assert_no_leaked_connections(table_jobs=table_jobs)

        # 2b. Sequential detect() whose second Phase-1 forward raises.
        run_phase1 = sched_forward.run_phase1
        forwards = []

        def raising_phase1(*args):
            forwards.append(args)
            if len(forwards) == 2:
                raise RuntimeError("forward failed")
            return run_phase1(*args)

        with monkeypatch.context() as patch:
            patch.setattr(sched_forward, "run_phase1", raising_phase1)
            with pytest.raises(RuntimeError, match="forward failed"):
                sequential.detect(_server(tables, metrics), names)
        assert len(forwards) == 2
        assert_no_leaked_connections(table_jobs=table_jobs)

        # 3. Three tenants through one service, one of them under faults.
        servers = {tenant: _server(tables, metrics) for tenant in TENANT_PLANS}
        with DetectionService(pipelined) as service:
            handles = [
                service.submit(tenant, servers[tenant], names, fault_plan=plan)
                for tenant, plan in TENANT_PLANS.items()
            ]
            reports = [handle.result(timeout=60.0) for handle in handles]
        assert all(report.ok for report in reports)
        for server in servers.values():
            assert_no_leaked_connections(service, server, table_jobs=table_jobs)

    assert len(table_jobs) == 6 * len(tables)
    monitor.assert_clean()
    edges = monitor.order_edges()
    assert monitor.order_cycle() is None, edges
    observed = {(edge["from"], edge["to"]) for edge in edges}
    assert EXPECTED_EDGES <= observed, sorted(EXPECTED_EDGES - observed)
