"""The four stages of processing one table (paper Sec. 3 and Sec. 5).

Each table flows through, in order:

1. **P1 data preparation** — fetch metadata over the connection (I/O);
2. **P1 inference** — metadata tower + metadata classifier (compute);
3. **P2 data preparation** — fetch content for uncertain columns (I/O),
   skipped when Phase 1 was certain about every column;
4. **P2 inference** — content tower (reusing cached metadata latents) +
   content classifier (compute).

:class:`TableJob` holds the state between stages so the pipelined executor
can interleave stages of different tables (Algorithm 1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..db.connection import Connection
from ..db.cost import CostLedger, billed_to, owed, total_cost
from ..db.schema import TableMetadata
from ..errors import RetryDeadlineError, RetryGiveUpError
from ..features.encoding import EncodedTable, split_metadata
from ..nn.functional import stable_sigmoid
from ..obs import NULL_METRICS, NULL_TRACER, current_span
from ..sched.forward import Phase1Request, Phase2Request
from .latent_cache import LatentCache
from .results import ColumnPrediction, DetectionReport, TableResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.plan import FaultInjector
    from .detector import TasteDetector

__all__ = ["ChunkState", "TableJob", "STAGE_KINDS", "STAGE_NAMES", "build_report"]

# Stage index -> resource class. "prep" stages go to thread pool TP1;
# "infer" stages run in rounds on the dispatch loop's thread (Algorithm 1's
# TP2, see repro.core.pipeline).
STAGE_KINDS = ("prep", "infer", "prep", "infer")
# Stage index -> span/metric name.
STAGE_NAMES = ("p1.prep", "p1.infer", "p2.prep", "p2.infer")

# The numerically-stable two-branch sigmoid: the naive 1/(1+exp(-x))
# overflows exp() for large negative logits. Shared with repro.nn so the
# baselines apply the identical formulation.
_sigmoid = stable_sigmoid


@dataclass
class ChunkState:
    """Per-chunk intermediate state between phases.

    Featurization happens in the *prep* stages (it is pure CPU work that
    belongs on TP1, run once the fetch it reads has succeeded); the infer
    stages only see ready-to-collate encodings.
    """

    metadata: TableMetadata
    encoded_p1: EncodedTable | None = None
    encoded_p2: EncodedTable | None = None
    local_content: dict[int, list[str]] = field(default_factory=dict)
    meta_probs: np.ndarray | None = None
    uncertain_local: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    column_offset: int = 0  # index of this chunk's first column in the table


class TableJob:
    """Processing state for one table across the four stages.

    ``latents`` is the job's own :class:`LatentCache`: P1 inference puts
    the metadata latents of each chunk Phase 2 will read, P2 inference
    takes them, and the store is emptied once P2 inference returns or the
    job gives up. Being per job, it is isolated between tables, runs and
    tenants by construction. ``cost`` bills every round trip its prep
    stages make, a reconnect included. ``span_attrs`` is merged into every stage
    span, which is how service runs link job → table → stage without
    changing the span tree shape.
    """

    def __init__(
        self,
        detector: "TasteDetector",
        connection: Connection,
        table_name: str,
        span_attrs: dict[str, object] | None = None,
    ) -> None:
        self.detector = detector
        self.connection = connection
        self.table_name = table_name
        self.span_attrs = span_attrs if span_attrs is not None else {}
        self.latents = LatentCache(
            enabled=detector.config.caching, metrics=detector.metrics
        )
        self.cost = CostLedger()
        self.metadata: TableMetadata | None = None
        self.chunks: list[ChunkState] = []
        self.content_by_column: dict[int, list[str]] = {}
        self.result = TableResult(table_name, predictions=[])
        self.completed_stages = 0
        self._prep_started = 0.0  # clock at a prep stage's fetch start
        # A prep stage's featurize part, while its fetch's waits are owed.
        self._featurize: Callable[[], None] | None = None
        self._infer_started = 0.0  # clock at infer_requests(), for apply_inference()

    # ------------------------------------------------------------------
    @property
    def num_stages(self) -> int:
        return len(STAGE_KINDS)

    @property
    def done(self) -> bool:
        return self.completed_stages >= self.num_stages

    def next_stage_kind(self) -> str | None:
        if self.done:
            return None
        return STAGE_KINDS[self.completed_stages]

    def run_next_stage(self) -> bool:
        """Run the next stage, or the rest of a stage a round trip left owing.

        An inference stage runs as :meth:`infer_phase1` /
        :meth:`infer_phase2`: the same request build, forward and readout
        a pipelined round makes, recorded by :meth:`apply_inference`.

        A data-preparation stage (the only kind that touches the
        connection) is a *fetch* part, :meth:`prepare_phase1` /
        :meth:`prepare_phase2`, run under the detector's
        :class:`~repro.faults.RetryPolicy` (a retryable fault is retried
        with backoff, and exhausted retries either degrade the table,
        ``runtime.degrade=True``, the default, or re-raise), then a pure
        CPU *featurize* part, :meth:`featurize_phase1` /
        :meth:`featurize_phase2`, that reads what the fetch returned.
        Inside a :func:`~repro.db.cost.deferring` block the fetch's waits
        are owed, not slept: the call then stops after the fetch and
        returns ``True``, and the caller makes the next call, which
        featurizes, no earlier than the owed seconds from now. Otherwise
        both parts run at once and ``False`` is returned.

        A prep stage's span and :class:`TableResult` seconds run from the
        fetch start to the featurize end, owed waits included.
        """
        stage = self.completed_stages
        if STAGE_KINDS[stage] == "infer":
            (self.infer_phase1 if stage == 1 else self.infer_phase2)()
            return False
        metrics = self._metrics()
        featurize, self._featurize = self._featurize, None
        try:
            if featurize is None:
                self._prep_started = time.perf_counter()
                featurize = self._fetch(stage, metrics)
                if featurize is None:  # gave up: the stage ends when its waits do
                    self._end_prep_stage(stage, time.perf_counter() + owed(), metrics)
                    return False
                if owed() > 0:
                    self._featurize = featurize
                    return True
            featurize()
        except BaseException as error:
            self._end_prep_stage(stage, time.perf_counter() + owed(), metrics, error)
            raise
        self._end_prep_stage(stage, time.perf_counter(), metrics)
        return False

    def infer_requests(self) -> "list[Phase1Request | Phase2Request]":
        """Start the next (infer) stage: the chunk requests it runs."""
        self._infer_started = time.perf_counter()
        if self.completed_stages == 1:
            return self._phase1_requests()
        return self._phase2_requests(self._phase2_chunks())

    def apply_inference(self, results: list) -> None:
        """Finish the stage :meth:`infer_requests` started, from its results.

        The stage's span runs from the request build to the end of the
        readout and parents to the caller's current span; its seconds go
        to :class:`TableResult` as a prep stage's do.
        """
        stage = self.completed_stages
        if stage == 1:
            self._read_phase1(results)
        else:
            self._read_phase2(self._phase2_chunks(), results)
        ended = time.perf_counter()
        name = STAGE_NAMES[stage]
        self._tracer().interval(
            f"stage.{name}",
            self._infer_started,
            ended,
            parent=current_span(),
            table=self.table_name,
            stage=name,
            kind=STAGE_KINDS[stage],
            index=stage,
            **self.span_attrs,
            **self._outcome_attrs(),
        )
        self._finish_stage(stage, ended - self._infer_started, self._metrics())

    def _tracer(self):
        tracer = getattr(self.detector, "tracer", None)
        return NULL_TRACER if tracer is None else tracer

    def _metrics(self):
        metrics = getattr(self.detector, "metrics", None)
        return NULL_METRICS if metrics is None else metrics

    def _outcome_attrs(self) -> dict[str, object]:
        attrs: dict[str, object] = {}
        if self.result.retries:
            attrs["retries"] = self.result.retries
        if self.result.degraded:
            attrs["degraded"] = True
        if self.result.failed:
            attrs["failed"] = True
        return attrs

    def _finish_stage(self, stage: int, elapsed: float, metrics) -> None:
        metrics.histogram("pipeline.stage_seconds", stage=STAGE_NAMES[stage]).observe(elapsed)
        attr = ("prepare1_seconds", "infer1_seconds", "prepare2_seconds", "infer2_seconds")[stage]
        setattr(self.result, attr, elapsed)
        self.completed_stages = max(self.completed_stages, stage + 1)

    def _end_prep_stage(
        self, stage: int, ended: float, metrics, error: BaseException | None = None
    ) -> None:
        """Record prep stage ``stage``, which began at ``_prep_started``.

        Its span parents to the caller's current span, which on a prep
        worker is the dispatcher's; a stage that raised gets no seconds.
        """
        name = STAGE_NAMES[stage]
        attrs = self._outcome_attrs()
        if error is not None:
            attrs["error"] = repr(error)
        self._tracer().interval(
            f"stage.{name}",
            self._prep_started,
            ended,
            parent=current_span(),
            table=self.table_name,
            stage=name,
            kind="prep",
            index=stage,
            **self.span_attrs,
            **attrs,
        )
        if error is None:
            self._finish_stage(stage, ended - self._prep_started, metrics)

    # ------------------------------------------------------------------
    # Resilience: retries and graceful degradation for prep stages
    # ------------------------------------------------------------------
    def _fetch(self, stage: int, metrics) -> Callable[[], None] | None:
        """Run prep stage ``stage``'s fetch part under the detector's retry
        policy, billed to the job; its featurize part, or ``None`` when the
        stage gave up.

        Only *fault-class* errors (see ``RetryPolicy.retryable``) are
        retried and, on give-up, degraded; anything else — unknown table,
        SQL error, model bug — propagates unchanged on first occurrence.
        """
        fetch, featurize = (
            (self.prepare_phase1, self.featurize_phase1)
            if stage == 0
            else (self.prepare_phase2, self.featurize_phase2)
        )
        name = STAGE_NAMES[stage]
        detector = self.detector
        policy = getattr(detector, "retry_policy", None)
        with billed_to(self.cost):
            if policy is None:
                fetch()
                return featurize
            retry_counter = metrics.counter("faults.retries", stage=name)

            def on_retry(error: BaseException, attempt: int, delay: float) -> None:
                retry_counter.inc()
                self.result.retries += 1

            try:
                policy.run(fetch, label=f"{name}[{self.table_name}]", on_retry=on_retry)
            except RetryGiveUpError as error:
                metrics.counter("faults.giveups", stage=name).inc()
                if isinstance(error, RetryDeadlineError):
                    metrics.counter("faults.deadline_exceeded", stage=name).inc()
                if not getattr(detector, "degrade", True):
                    raise
                self._give_up(stage, error, metrics)
                return None
        return featurize

    def _give_up(self, stage: int, error: RetryGiveUpError, metrics) -> None:
        """Record a permanent stage failure and degrade gracefully.

        A Phase-1 give-up means the table has no metadata at all: it is
        marked ``failed`` with zero predictions. A Phase-2 give-up keeps
        the Phase-1 (metadata-only) predictions: columns that were headed
        for content verification are reverted to phase 1 and flagged
        ``degraded``. Either way, remaining stages are skipped and the
        table still appears in the final report.
        """
        self.result.error = str(error)
        self.latents.entries.clear()
        if stage == 0:
            self.result.failed = True
            self.result.predictions = []
            metrics.counter("detector.tables_failed").inc()
        else:
            self.result.degraded = True
            self.content_by_column.clear()
            for prediction in self.result.predictions:
                if prediction.phase == 2:
                    prediction.phase = 1
                    prediction.degraded = True
            metrics.counter("detector.tables_degraded").inc()
        self.completed_stages = self.num_stages

    # ------------------------------------------------------------------
    # Stage 1: P1 data preparation (I/O)
    # ------------------------------------------------------------------
    def prepare_phase1(self) -> None:
        """Stage 1's fetch part: the table's metadata, one round trip."""
        self.metadata = self.connection.fetch_metadata(self.table_name)

    def featurize_phase1(self) -> None:
        """Stage 1's featurize part: split the metadata into chunks and
        encode them here, on TP1, so the infer stage's critical path is
        pure model compute (which the batcher can batch across tables)."""
        featurizer = self.detector.featurizer
        threshold = featurizer.config.column_split_threshold
        self.chunks = []
        offset = 0
        for chunk_md in split_metadata(self.metadata, threshold):
            chunk = ChunkState(chunk_md, column_offset=offset)
            chunk.encoded_p1 = featurizer.encode(chunk_md)
            self.chunks.append(chunk)
            offset += len(chunk_md.columns)

    # ------------------------------------------------------------------
    # Stage 2: P1 inference (compute)
    # ------------------------------------------------------------------
    def infer_phase1(self) -> None:
        self.apply_inference(self.detector.run_inference(self.infer_requests()))

    def _phase1_requests(self) -> list[Phase1Request]:
        policy = self.detector.thresholds
        # The batcher keeps a chunk's latents only when this policy sends
        # one of its columns to Phase 2, i.e. only when stage 4 reads them.
        keep_latents = policy if self.latents.enabled and policy.phase2_enabled else None
        return [
            Phase1Request(encoded=chunk.encoded_p1, phase2_policy=keep_latents)
            for chunk in self.chunks
        ]

    def _read_phase1(self, results: list) -> None:
        policy = self.detector.thresholds
        registry = self.detector.featurizer.registry
        for chunk_index, (chunk, outcome) in enumerate(zip(self.chunks, results)):
            probs = outcome.probs  # (C, num_labels)
            chunk.meta_probs = probs

            if outcome.encoding is not None:
                self.latents.put(chunk_index, outcome.encoding)

            uncertain = policy.uncertain_columns(probs) if policy.phase2_enabled else np.zeros(0, dtype=np.int64)
            chunk.uncertain_local = uncertain
            uncertain_set = set(int(i) for i in uncertain)

            for local, column in enumerate(chunk.metadata.columns):
                admitted = registry.vector_to_labels(probs[local], threshold=policy.beta)
                uncertain_types = [
                    registry.label_names[t]
                    for t in np.flatnonzero(policy.uncertain_mask(probs[local]))
                ] if local in uncertain_set else []
                self.result.predictions.append(
                    ColumnPrediction(
                        table_name=self.table_name,
                        column_name=column.column_name,
                        admitted_types=admitted,
                        phase=2 if local in uncertain_set else 1,
                        probabilities=probs[local].copy(),
                        uncertain_types=uncertain_types,
                    )
                )

    # ------------------------------------------------------------------
    # Stage 3: P2 data preparation (I/O)
    # ------------------------------------------------------------------
    def prepare_phase2(self) -> None:
        """Stage 3's fetch part: one content scan of every uncertain
        column, none when Phase 1 was certain about all of them. A retried
        attempt overwrites the content map."""
        detector = self.detector
        uncertain_names: list[str] = []
        uncertain_global: list[int] = []
        for chunk in self.chunks:
            for local in chunk.uncertain_local:
                uncertain_global.append(chunk.column_offset + int(local))
                uncertain_names.append(chunk.metadata.columns[int(local)].column_name)
        if not uncertain_names:
            return
        config = detector.config
        sample_seed = config.sample_seed if config.scan_method == "sample" else None
        values = self.connection.fetch_values(
            self.table_name,
            uncertain_names,
            limit=detector.featurizer.config.scan_rows,
            sample_seed=sample_seed,
        )
        for global_index, name in zip(uncertain_global, uncertain_names):
            self.content_by_column[global_index] = values[name]

    def featurize_phase2(self) -> None:
        """Stage 3's featurize part: the content encodings (TP1 work), so
        the infer stage is pure model compute."""
        featurizer = self.detector.featurizer
        for chunk in self.chunks:
            chunk.local_content = {
                int(local): self.content_by_column[chunk.column_offset + int(local)]
                for local in chunk.uncertain_local
                if (chunk.column_offset + int(local)) in self.content_by_column
            }
            chunk.encoded_p2 = (
                featurizer.encode(chunk.metadata, chunk.local_content)
                if chunk.local_content
                else None
            )

    # ------------------------------------------------------------------
    # Stage 4: P2 inference (compute)
    # ------------------------------------------------------------------
    def infer_phase2(self) -> None:
        self.apply_inference(self.detector.run_inference(self.infer_requests()))

    def _phase2_chunks(self) -> list[tuple[int, ChunkState]]:
        """``(index, chunk)`` of every chunk with content to verify."""
        if not self.content_by_column:
            return []
        return [
            (index, chunk)
            for index, chunk in enumerate(self.chunks)
            if chunk.encoded_p2 is not None
        ]

    def _phase2_requests(self, chunks: list[tuple[int, ChunkState]]) -> list[Phase2Request]:
        return [
            Phase2Request(encoded=chunk.encoded_p2, cached=self.latents.get(index))
            for index, chunk in chunks
        ]

    def _read_phase2(self, chunks: list[tuple[int, ChunkState]], results: list) -> None:
        policy = self.detector.thresholds
        registry = self.detector.featurizer.registry
        # Predictions are indexed by global column position.
        predictions = self.result.predictions
        for (_, chunk), outcome in zip(chunks, results):
            probs = outcome.probs
            for local in chunk.local_content:
                global_index = chunk.column_offset + local
                prediction = predictions[global_index]
                prediction.probabilities = probs[local].copy()
                prediction.admitted_types = registry.vector_to_labels(
                    probs[local], threshold=policy.phase2_admit
                )
                prediction.phase = 2


def build_report(
    jobs: "list[TableJob]",
    wall_seconds: float,
    injector: "FaultInjector | None",
    costs: "list[CostLedger] | None" = None,
) -> DetectionReport:
    """The report of a run of ``jobs``: a ``detect()`` or a service job.

    ``cost`` adds ``costs`` (a run's own round trips, such as its batch
    connect), then each job's, in order.
    """
    results = [job.result for job in jobs]
    return DetectionReport(
        tables=results,
        wall_seconds=wall_seconds,
        cost=total_cost([*(costs or []), *(job.cost for job in jobs)]),
        cache_hits=sum(job.latents.hits for job in jobs),
        cache_misses=sum(job.latents.misses for job in jobs),
        cache_disabled_lookups=sum(job.latents.disabled_lookups for job in jobs),
        retries=sum(result.retries for result in results),
        giveups=sum(1 for result in results if result.degraded or result.failed),
        faults_injected=injector.total_fired if injector is not None else 0,
    )
