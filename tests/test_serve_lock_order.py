"""No lock is held across a real database wait in the service.

A prep stage's wait takes the service's dispatch condition to give its
pipeline slot back, and job finalization takes a job connection's lock
(and the pool's) while holding that condition. So a lock held across a
connect or a fetch closes a cycle. The static lock-order analysis cannot
see through the wait hook (a context variable), so this drives a real
sleeping service under the lockset monitor and checks the observed order.
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


def find_cycle(edges):
    """A lock-order cycle as a list of labels, or ``None``."""
    graph: dict[str, set[str]] = {}
    for edge in edges:
        graph.setdefault(edge["from"], set()).add(edge["to"])
    visiting: list[str] = []
    done: set[str] = set()

    def visit(node):
        if node in visiting:
            return visiting[visiting.index(node):] + [node]
        if node in done:
            return None
        visiting.append(node)
        for successor in sorted(graph.get(node, ())):
            cycle = visit(successor)
            if cycle:
                return cycle
        visiting.pop()
        done.add(node)
        return None

    for node in sorted(graph):
        cycle = visit(node)
        if cycle:
            return cycle
    return None


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

    edges = monitor.order_edges()
    assert find_cycle(edges) is None, edges
    assert waits > 0  # the stages really did wait with the hook set
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
