"""No lock is held across a database wait in the service.

On a sleeping server a prep stage owes its database waits: its worker
parks the job under the service's dispatch condition, and job
finalization takes a job connection's lock (and the pool's) while
holding that condition. So a connection lock held while a stage reaches
the condition closes a cycle. The owed waits travel through a context
variable, which no reading of the source follows, so this drives a real
sleeping service under the lockset monitor and checks the observed
order; ``test_stack_lock_order.py`` does the same for the whole stack.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis import LocksetMonitor
from repro.core import (
    DetectOptions,
    DetectorConfig,
    RuntimeConfig,
    TasteDetector,
    ThresholdPolicy,
)
from repro.db import CloudDatabaseServer, ConnectionPool
from repro.experiments.common import paper_cost_model
from repro.faults import FaultPlan, FaultRule
from repro.obs import MetricsRegistry, Tracer
from repro.serve import DetectionService
from repro.serve.service import _JobConnection, _ServiceSource

TENANTS = ("tenant-a", "tenant-b", "tenant-c")


def fingerprint(report):
    return sorted(
        (p.table_name, p.column_name, p.phase, tuple(p.admitted_types),
         p.probabilities.tobytes())
        for p in report.predictions
    )


# A connect that is slow next to the fetches, so a job's other tables are
# dispatched while its first one is still connecting.
COST_MODEL = replace(paper_cost_model(0.05), connect_latency=0.4)

# The first connect of every job fails once and is retried; each connect
# also sleeps an injected delay.
CONNECT_FAULTS = FaultPlan(
    seed=5,
    rules=(
        FaultRule("connect", "transient", max_faults=1),
        FaultRule("connect", "latency", delay=0.2),
    ),
)


@pytest.mark.parametrize("plan", [None, CONNECT_FAULTS], ids=["pooled", "connect-faults"])
def test_sleeping_service_lock_order_is_acyclic(
    untrained_model, featurizer, tiny_corpus, plan
):
    detector = TasteDetector(
        untrained_model,
        featurizer,
        ThresholdPolicy(0.1, 0.9),
        config=DetectorConfig(pipelined=True),
        runtime=RuntimeConfig(metrics=MetricsRegistry(), tracer=Tracer(enabled=False)),
    )
    names = [table.name for table in tiny_corpus.tables[:4]]
    monitor = LocksetMonitor()
    with monitor.instrument(_ServiceSource, _JobConnection, ConnectionPool):
        with DetectionService(detector) as service:
            handles = [
                service.submit(
                    tenant,
                    CloudDatabaseServer.from_tables(tiny_corpus.tables, COST_MODEL),
                    names,
                    fault_plan=plan,
                )
                for tenant in TENANTS
            ]
            reports = [handle.result(timeout=60.0) for handle in handles]
            created = [pool.stats.created for pool in service._pools.values()]
        waits = detector.metrics.counter("pipeline.db_waits", pool="prep").value

    assert monitor.order_cycle() is None, monitor.order_edges()
    assert waits > 0  # the stages really did owe waits
    if plan is None:
        # One pooled connection per tenant's server, however many of the
        # job's tables were dispatched while it connected.
        assert created == [1] * len(TENANTS)
    direct = detector.detect(
        CloudDatabaseServer.from_tables(tiny_corpus.tables, COST_MODEL),
        names,
        options=DetectOptions(fault_plan=plan),
    )
    for report in reports:
        assert report.ok
        assert fingerprint(report) == fingerprint(direct)
        # The job connected exactly as often as detect() does, and drew on
        # the connect fault rules exactly as often.
        assert report.cost == pytest.approx(direct.cost)
        assert report.faults_injected == direct.faults_injected
        assert (report.retries, report.giveups) == (direct.retries, direct.giveups)
