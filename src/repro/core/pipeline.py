"""Pipelined execution of TASTE over many tables (paper Sec. 5, Algorithm 1).

Data-preparation stages (I/O + CPU) and inference stages (model compute)
use different resources, so interleaving them across tables raises
utilization: while table A is in inference, table B's content fetch can be
in flight. A stage is *eligible* once all previous stages of the same
table have finished (Definition 5.1). Prep stages run on thread pool
``TP1``; Algorithm 1's inference pool ``TP2`` is the dispatch loop's own
thread.

Why no inference pool: inference is numpy under one GIL. Forwards on
threads of their own do not overlap each other or the loop; they compete
with them for that lock, and a forward replayed on a contended thread
takes about twice as long as the same forward alone. So the loop runs
inference itself, in *rounds*: it takes the tables whose next stage is
inference, in ``pending()`` order, up to ``max_batch_cols`` columns
(always at least one table), releases the source's condition, builds
their requests, runs them all through one width-grouped forward call
(:meth:`~repro.sched.InferenceBatcher.run`), applies each table's
readout, and reports each table back under the condition. Nothing waits
for a batch to fill.

Prep keeps flowing while a round runs. The loop dispatches prep stages
before every round, and a prep worker that finishes a stage refills its
own slot under the condition: it takes the next ready prep stage in
``pending()`` order and runs it on its own thread. It stops when the
source aborts, when no prep stage is ready, or when a waking database
wait has pushed the slots over ``prep_workers``. The next round then
carries every table prepared meanwhile, so a round is bounded by
``max_batch_cols``, not by ``prep_workers``.

A prep stage spends most of its wall blocked on the database, not on the
CPU. ``prep_workers`` therefore counts prep stages *on the CPU*: while a
stage sits in a real wait (:func:`repro.db.cost.wait` — a charged round
trip, an injected fault delay, a retry backoff) it gives its slot back so
another prep stage can start, and on waking it takes the slot back
without blocking (briefly over the limit). ``TP1`` has
:data:`PREP_THREADS` threads, which caps CPU slots plus overlapped waits;
the dispatcher never submits more prep stages than it has threads. With
``time_scale=0`` round trips and injected delays do not wait, but retry
backoffs (which ``time_scale`` does not scale) still do; a run without
retries then runs at most ``prep_workers`` prep stages, exactly as a
fixed-size pool would.

The dispatch loop is event-driven: prep workers ``notify_all()`` the
condition on completion and the loop blocks in ``condition.wait()`` when
it has nothing to dispatch and no round to run (a long ``wait_timeout``
remains as a safety net only; timeouts are counted in the
``pipeline.wait_timeouts`` metric and a healthy run records zero). Prep
stages run inside a copy of the dispatcher's :mod:`contextvars` context
and rounds run in the dispatcher's own, so tracer spans of either kind
parent to the run's root span.

Where jobs come from is abstracted behind :class:`JobSource` so the same
loop serves two callers: the one-shot :meth:`PipelinedExecutor.run` (a
static list of jobs, exit when drained, first failure aborts) and the
long-lived :class:`~repro.serve.DetectionService` (jobs arrive and are
cancelled while the loop runs; per-table failures are absorbed into the
table's result instead of killing the loop).

``SequentialExecutor`` is the ablation baseline: tables processed one by
one, stages strictly in order, no overlap.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Iterator, Protocol

from ..db.cost import WAIT_SCOPE
from ..obs.metrics import MetricsRegistry, NullMetricsRegistry, global_registry
from .phases import TableJob

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .detector import TasteDetector

__all__ = ["JobSource", "PipelinedExecutor", "SequentialExecutor", "PREP_THREADS"]

# TP1's thread count (or ``prep_workers``, if larger): the ceiling on prep
# stages in flight, on the CPU or in a database wait. On the ``wiki_netio``
# benchmark workload (5 ms round trips, 2 vCPUs) throughput is flat from 8
# to 32 threads and about half that at 4; 16 leaves headroom for slower
# round trips, which need more waits in flight for the same rate.
PREP_THREADS = 16


class SequentialExecutor:
    """Runs every stage of every table in order, with no concurrency."""

    def run(
        self,
        jobs: list[TableJob],
        metrics: MetricsRegistry | NullMetricsRegistry | None = None,
    ) -> None:
        for job in jobs:
            while not job.done:
                job.run_next_stage()


class JobSource(Protocol):
    """Where the dispatch loop gets its jobs and reports their progress.

    The source owns ``condition`` — the one lock of the whole dispatch
    loop. Every method below is called *with that condition held*; a
    source that enqueues or cancels jobs from other threads must take the
    same condition and ``notify_all()`` so the loop re-reads ``pending()``.
    """

    condition: threading.Condition

    def pending(self) -> list[TableJob]:
        """Dispatchable (not-done) jobs, in dispatch-priority order."""
        ...

    def finished(self) -> bool:
        """True when a drained loop (nothing pending/running) should exit."""
        ...

    def aborted(self) -> bool:
        """True when the loop should stop immediately (fatal failure)."""
        ...

    def note_dispatch(self, job: TableJob, kind: str) -> None:
        """A ``kind`` stage of ``job`` was just dispatched (to TP1, or to a round).

        Prep stages are dispatched by the loop and by prep workers
        refilling their own slot; either way the condition is held.
        """
        ...

    def note_stage_complete(self, job: TableJob) -> None:
        """A stage of ``job`` finished normally."""
        ...

    def note_stage_error(self, job: TableJob, error: BaseException) -> None:
        """A stage of ``job`` raised ``error`` out of ``run_next_stage``."""
        ...


class _StaticSource:
    """The one-shot source behind :meth:`PipelinedExecutor.run`.

    A fixed job list, drained to completion; the first stage failure
    aborts the loop and is re-raised to the caller (matching the
    pre-service executor semantics exactly).
    """

    def __init__(self, jobs: list[TableJob]) -> None:
        self.condition = threading.Condition()
        self.jobs = jobs
        self.failures: list[BaseException] = []

    def pending(self) -> list[TableJob]:
        return [job for job in self.jobs if not job.done]

    def finished(self) -> bool:
        return True

    def aborted(self) -> bool:
        return bool(self.failures)

    def note_dispatch(self, job: TableJob, kind: str) -> None:
        return None

    def note_stage_complete(self, job: TableJob) -> None:
        return None

    def note_stage_error(self, job: TableJob, error: BaseException) -> None:
        self.failures.append(error)


class PipelinedExecutor:
    """Algorithm 1: prep stages on TP1, inference in rounds on the loop.

    TP1 is CPU slots plus overlapped waits: ``prep_workers`` prep stages
    may run on the CPU at once, and a stage blocked in a real database
    wait does not count against them (see the module docstring). TP1's
    threads, ``max(prep_workers, PREP_THREADS)``, bound both together.
    A worker whose stage ends keeps its slot for the next ready prep
    stage. Inference stages run on the thread that calls
    :meth:`run_source`.

    Parameters
    ----------
    prep_workers:
        Prep stages on the CPU at once (TP1's slots).
    detector:
        The :class:`~repro.core.TasteDetector` whose tables run: a round
        takes up to its ``batching.max_batch_cols`` columns (always at
        least one table) and runs through its
        :meth:`~repro.core.TasteDetector.run_inference`. ``None`` puts no
        budget on a round and hands each request back as its own result,
        for stage machines whose infer stages need no model.
    wait_timeout:
        Safety-net timeout for the dispatch loop's ``condition.wait``.
        Workers always notify on completion, so with work outstanding
        this should never fire; a firing with stages pending or running
        increments ``pipeline.wait_timeouts``. (An idle long-lived source
        waiting for new jobs times out routinely; that is not a stall and
        is not counted.)

    A stage machine the loop drives has ``done``, ``next_stage_kind()``
    and ``run_next_stage()`` (prep stages), and for its infer stages
    ``infer_columns()``, ``infer_requests()`` and
    ``apply_inference(results)``, as :class:`~repro.core.phases.TableJob`.
    """

    def __init__(
        self,
        prep_workers: int = 2,
        *,
        detector: "TasteDetector | None" = None,
        wait_timeout: float = 5.0,
    ) -> None:
        if prep_workers < 1:
            raise ValueError("prep_workers must be at least 1")
        self.prep_workers = prep_workers
        self.detector = detector
        self.wait_timeout = wait_timeout

    def run(
        self,
        jobs: list[TableJob],
        metrics: MetricsRegistry | NullMetricsRegistry | None = None,
    ) -> None:
        if not jobs:
            return
        source = _StaticSource(jobs)
        self.run_source(source, metrics)
        if source.failures:
            raise source.failures[0]

    def _run_round(self, jobs: list[TableJob]) -> list[Exception | None]:
        """Run one inference round (condition released); each job's error.

        A failing request build or readout fails its own table; a failing
        forward fails every table of the round.
        """
        errors: list[Exception | None] = [None] * len(jobs)
        built: list[list] = []
        for index, job in enumerate(jobs):
            try:
                built.append(job.infer_requests())
            except Exception as error:  # routed to the source
                errors[index] = error
                built.append([])
        requests = [request for job_requests in built for request in job_requests]
        try:
            results = requests if self.detector is None else self.detector.run_inference(requests)
        except Exception as error:  # routed to the source
            return [failure or error for failure in errors]
        offset = 0
        for index, job in enumerate(jobs):
            count = len(built[index])
            if errors[index] is None:
                try:
                    job.apply_inference(results[offset : offset + count])
                except Exception as error:  # routed to the source
                    errors[index] = error
            offset += count
        return errors

    def run_source(
        self,
        source: JobSource,
        metrics: MetricsRegistry | NullMetricsRegistry | None = None,
    ) -> None:
        """Drain ``source`` until it finishes: prep on TP1, rounds here.

        The long-lived entry point: the loop keeps waiting on the
        source's condition while ``finished()`` is false, so a service
        can keep enqueuing jobs. All loop state (in-flight counts, the
        running set, eligibility clocks) is local; the only shared lock
        is ``source.condition``.
        """
        metrics = metrics if metrics is not None else global_registry()
        waiting_gauge = metrics.gauge("pipeline.waiting")
        db_waits = metrics.counter("pipeline.db_waits", pool="prep")
        in_flight_gauges = {
            kind: metrics.gauge("pipeline.in_flight", pool=kind)
            for kind in ("prep", "infer")
        }
        dispatch_counters = {
            kind: metrics.counter("pipeline.dispatches", pool=kind)
            for kind in ("prep", "infer")
        }
        queue_wait = {
            kind: metrics.histogram("pipeline.queue_wait_seconds", pool=kind)
            for kind in ("prep", "infer")
        }
        wakeups = metrics.counter("pipeline.wakeups")
        wait_timeouts = metrics.counter("pipeline.wait_timeouts")
        dispatch_seconds = metrics.histogram("pipeline.dispatch_seconds")

        condition = source.condition
        # ``prep_in_flight`` counts prep stages on the CPU; ``waiting``
        # those blocked in a real wait, which hold a thread but no slot.
        prep_in_flight = 0
        waiting = 0
        # A job is dispatchable when it is not done and not currently running.
        running: set[int] = set()
        # id(job) -> clock reading when its next stage became eligible.
        eligible_since: dict[int, float] = {}

        @contextlib.contextmanager
        def slot_released() -> Iterator[None]:
            # Entered by every real wait of a prep stage. Re-entry never
            # blocks: a stage that waited for a free slot here would park a
            # TP1 thread that a dispatched stage may be queued behind.
            nonlocal prep_in_flight, waiting
            with condition:
                prep_in_flight -= 1
                waiting += 1
                in_flight_gauges["prep"].set(prep_in_flight)
                waiting_gauge.set(waiting)
                db_waits.inc()
                condition.notify_all()
            try:
                yield
            finally:
                with condition:
                    waiting -= 1
                    prep_in_flight += 1
                    in_flight_gauges["prep"].set(prep_in_flight)
                    waiting_gauge.set(waiting)

        def report(job: TableJob, error: BaseException | None) -> None:
            # Condition held: the job's stage is over, report it.
            running.discard(id(job))
            if job.done:
                eligible_since.pop(id(job), None)
            else:
                eligible_since[id(job)] = time.perf_counter()
            if error is None:
                source.note_stage_complete(job)
            else:
                source.note_stage_error(job, error)

        def next_prep() -> TableJob | None:
            # Condition held: the slot a finishing stage frees goes to the
            # first ready prep stage in pending() order, unless the run
            # aborted or a waking stage pushed the slots over the limit.
            if source.aborted() or prep_in_flight > self.prep_workers:
                return None
            for job in source.pending():
                if not job.done and id(job) not in running and job.next_stage_kind() == "prep":
                    return job
            return None

        def prep_worker(job: TableJob | None) -> None:
            nonlocal prep_in_flight
            # Scoped to this dispatch's context copy; gone when it ends.
            WAIT_SCOPE.set(slot_released)
            while job is not None:
                error: BaseException | None = None
                try:
                    job.run_next_stage()
                except BaseException as stage_error:  # routed to the source
                    error = stage_error
                with condition:
                    report(job, error)
                    # Refill the slot here, not on the loop's next pass, so
                    # prep keeps flowing while the loop runs a round.
                    job = next_prep()
                    if job is None:
                        prep_in_flight -= 1
                        in_flight_gauges["prep"].set(prep_in_flight)
                    else:
                        dispatch(job, "prep", time.perf_counter())
                    condition.notify_all()

        def dispatch(job: TableJob, kind: str, now: float) -> None:
            queue_wait[kind].observe(now - eligible_since.get(id(job), now))
            running.add(id(job))
            dispatch_counters[kind].inc()
            source.note_dispatch(job, kind)

        prep_threads = max(self.prep_workers, PREP_THREADS)
        round_budget = (
            self.detector.config.batching.max_batch_cols
            if self.detector is not None
            else float("inf")
        )
        with ThreadPoolExecutor(prep_threads, thread_name_prefix="taste-prep") as tp1:
            with condition:
                while True:
                    if source.aborted():
                        break
                    pass_started = time.perf_counter()
                    pending = [job for job in source.pending() if not job.done]
                    if not pending and not running and source.finished():
                        break
                    for job in pending:
                        eligible_since.setdefault(id(job), pass_started)
                    # One scan in pending() order (Algorithm 1 lines 8-19: a
                    # job's *next* stage must match and the job must not be
                    # running a stage): every prep stage a TP1 slot and
                    # thread can take, and this pass's inference round.
                    dispatched = False
                    round_jobs: list[TableJob] = []
                    round_cols = 0
                    round_full = False
                    for job in pending:
                        if id(job) in running:
                            continue
                        kind = job.next_stage_kind()
                        if kind == "prep":
                            if (
                                prep_in_flight >= self.prep_workers
                                or prep_in_flight + waiting >= prep_threads
                            ):
                                continue
                            dispatch(job, "prep", time.perf_counter())
                            prep_in_flight += 1
                            in_flight_gauges["prep"].set(prep_in_flight)
                            # Run the stage inside the dispatcher's context so
                            # spans opened on the worker thread keep the run's
                            # root span as an ancestor.
                            context = contextvars.copy_context()
                            tp1.submit(context.run, prep_worker, job)
                            dispatched = True
                        elif kind == "infer" and not round_full:
                            cost = job.infer_columns()
                            if round_jobs and round_cols + cost > round_budget:
                                round_full = True
                                continue
                            round_jobs.append(job)
                            round_cols += cost
                    now = time.perf_counter()
                    for job in round_jobs:
                        dispatch(job, "infer", now)
                    dispatch_seconds.observe(time.perf_counter() - pass_started)
                    if round_jobs:
                        in_flight_gauges["infer"].set(len(round_jobs))
                        condition.release()
                        try:
                            errors = self._run_round(round_jobs)
                        finally:
                            condition.acquire()
                        in_flight_gauges["infer"].set(0)
                        for job, error in zip(round_jobs, errors):
                            report(job, error)
                        continue
                    if not dispatched:
                        # Event-driven wait: workers notify on completion, so
                        # a timeout with work outstanding is a stall. An idle
                        # long-lived source (nothing pending or running,
                        # waiting for submissions) times out as a matter of
                        # course and is not counted.
                        notified = condition.wait(timeout=self.wait_timeout)
                        wakeups.inc()
                        if not notified and (pending or running):
                            wait_timeouts.inc()
