"""The TASTE detector: the public entry point of the framework.

Wires together the ADTD model, the featurizer, the (α, β) threshold policy
and an executor, and runs end-to-end detection against a
simulated cloud database server. See paper Fig. 1 for the flow.

Typical use::

    detector = TasteDetector(model, featurizer, ThresholdPolicy(0.1, 0.9))
    report = detector.detect(server, table_names)
    report.scanned_ratio()   # intrusiveness
    report.wall_seconds      # end-to-end execution time

Behaviour is configured through two frozen dataclasses
(:class:`~repro.core.config.DetectorConfig` for what the detector does,
:class:`~repro.core.config.RuntimeConfig` for observability and
resilience)::

    detector = TasteDetector(
        model, featurizer, ThresholdPolicy(0.1, 0.9),
        config=DetectorConfig(pipelined=False, scan_method="sample"),
        runtime=RuntimeConfig(retry_policy=RetryPolicy(max_attempts=5)),
    )
    report = detector.detect(server, options=DetectOptions(fault_plan=plan))

Every execution mode reaches the model by one route:
:meth:`TasteDetector.run_inference` hands the chunk requests to the
detector's :class:`~repro.sched.InferenceBatcher`. ``pipelined`` picks
the executor (the sequential one is the threadless reference),
``batching.enabled`` whether a forward carries many requests or one, and
``compile.enabled`` whether forwards replay compiled plans.
"""

from __future__ import annotations

import time
from pathlib import Path

from ..core.adtd import ADTDModel
from ..db.cost import CostLedger, billed_to
from ..db.server import CloudDatabaseServer
from ..errors import RetryGiveUpError
from ..faults.plan import FaultInjector
from ..features.encoding import Featurizer
from ..obs import Tracer, write_spans_jsonl
from ..obs.metrics import MetricsRegistry, NullMetricsRegistry, global_registry
from ..sched.batcher import InferenceBatcher
from ..sched.forward import Phase1Request, Phase1Result, Phase2Request, Phase2Result
from .config import DetectOptions, DetectorConfig, RuntimeConfig
from .phases import TableJob, build_report
from .pipeline import PipelinedExecutor, SequentialExecutor
from .results import DetectionReport
from .thresholds import ThresholdPolicy

__all__ = ["TasteDetector"]


class TasteDetector:
    """Two-phase semantic type detector (the TASTE framework).

    Parameters
    ----------
    model:
        A trained :class:`~repro.core.adtd.ADTDModel`.
    featurizer:
        Featurizer whose config carries ``n``/``m``/``l`` and the histogram
        switch; must use the tokenizer/registry the model was trained with.
    thresholds:
        The (α, β) certainty policy. ``ThresholdPolicy.privacy_mode()``
        yields the metadata-only variant ("TASTE without P2").
    config:
        A :class:`DetectorConfig` (caching, pipelining, prep slots, scan
        method, batching, compilation). Defaults to ``DetectorConfig()``.
    runtime:
        A :class:`RuntimeConfig` (tracer, metrics, retry policy,
        degradation switch). Defaults to ``RuntimeConfig()`` — a fresh
        enabled tracer, the process-global metrics registry, and a
        3-attempt retry policy with graceful degradation.
    """

    def __init__(
        self,
        model: ADTDModel,
        featurizer: Featurizer,
        thresholds: ThresholdPolicy | None = None,
        *,
        config: DetectorConfig | None = None,
        runtime: RuntimeConfig | None = None,
    ) -> None:
        self.config = config if config is not None else DetectorConfig()
        self.runtime = runtime if runtime is not None else RuntimeConfig()
        self.model = model
        self.featurizer = featurizer
        self.thresholds = thresholds or ThresholdPolicy()
        self.tracer = self.runtime.tracer if self.runtime.tracer is not None else Tracer()
        self.metrics = (
            self.runtime.metrics if self.runtime.metrics is not None else global_registry()
        )
        self.retry_policy = self.runtime.retry_policy
        self.degrade = self.runtime.degrade
        self.batcher = InferenceBatcher(model, self.config, metrics=self.metrics)
        self._executor = (
            PipelinedExecutor(self.config.prep_workers, detector=self)
            if self.config.pipelined
            else SequentialExecutor()
        )
        self.model.eval()

    # ------------------------------------------------------------------
    # Inference dispatch (shared by the stage implementations)
    # ------------------------------------------------------------------
    def run_inference(
        self, requests: "list[Phase1Request | Phase2Request]"
    ) -> "list[Phase1Result | Phase2Result]":
        """Run chunk requests through the detector's
        :class:`InferenceBatcher`, returning results in order.

        Every mode takes this route: a pipelined round passes many
        tables' requests at once, a sequential run one table's stage.
        The batcher runs them as exact-width forwards on the calling
        thread, one request per forward when ``batching.enabled`` is
        false.
        """
        return self.batcher.run(requests)

    # ------------------------------------------------------------------
    def detect(
        self,
        server: CloudDatabaseServer,
        table_names: list[str] | None = None,
        trace_out: str | Path | None = None,
        options: DetectOptions | None = None,
    ) -> DetectionReport:
        """Detect semantic types for ``table_names`` (default: all tables).

        Opens one connection for the batch (reused across tables, as the
        paper recommends), runs the four-stage jobs through the configured
        executor and returns a :class:`DetectionReport` with predictions,
        wall time and what this run's round trips cost the database.

        ``options`` carries per-call settings: ``options.fault_plan``
        injects deterministic faults into the run's database traffic (the
        run then retries per the runtime's :class:`RetryPolicy` and, when
        retries are exhausted, degrades tables to their Phase-1 prediction
        instead of raising — see :meth:`DetectionReport.failure_summary`).
        ``trace_out`` (kwarg or option) writes the tracer's spans as a
        JSONL artifact after the run.

        The whole run executes under a root ``detect`` span; every stage
        span of every table (prep stages from TP1, inference rounds from
        the calling thread) descends from it.
        """
        options = options if options is not None else DetectOptions()
        if trace_out is not None:
            options = options.replace(trace_out=trace_out)
        injector = (
            options.fault_plan.build(metrics=self.metrics)
            if options.fault_plan is not None
            else None
        )
        started = time.perf_counter()
        with self.tracer.span(
            "detect",
            pipelined=self.config.pipelined,
            scan_method=self.config.scan_method,
            faults=injector is not None,
        ) as root, billed_to(CostLedger()) as run_cost:  # table jobs bill their own stages
            connection = self._connect(server, injector)
            try:
                if table_names is None:
                    table_names = connection.list_tables()
                root.set(num_tables=len(table_names))
                jobs = [TableJob(self, connection, name) for name in table_names]
                self._executor.run(jobs, metrics=self.metrics)
            finally:
                connection.close()
        wall = time.perf_counter() - started
        if options.trace_out is not None:
            write_spans_jsonl(self.tracer.spans(), options.trace_out)
        return build_report(jobs, wall, injector, [run_cost])

    def detect_table(self, server: CloudDatabaseServer, table_name: str) -> DetectionReport:
        """Convenience wrapper for a single table."""
        return self.detect(server, [table_name])

    # ------------------------------------------------------------------
    def _connect(self, server: CloudDatabaseServer, injector: FaultInjector | None):
        """Open the batch connection, retried under the runtime policy.

        A connection that cannot be established even after retries raises
        :class:`~repro.faults.RetryGiveUpError` — with no connection there
        is nothing to degrade to.
        """
        factory = (lambda: injector.connect(server)) if injector is not None else server.connect
        retries = self.metrics.counter("faults.retries", stage="connect")
        try:
            return self.retry_policy.run(
                factory,
                label="connect",
                on_retry=lambda error, attempt, delay: retries.inc(),
            )
        except RetryGiveUpError:
            self.metrics.counter("faults.giveups", stage="connect").inc()
            raise
