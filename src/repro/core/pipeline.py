"""Pipelined execution of TASTE over many tables (paper Sec. 5, Algorithm 1).

Data-preparation stages (I/O + CPU) and inference stages (model compute)
use different resources, so interleaving them across tables raises
utilization. A stage is *eligible* once the previous stage of its table
has finished (Definition 5.1). That happens at one moment, when that
stage is reported, so that is when the loop files the job with its
:class:`JobSource`, in one ready queue per stage kind; dispatch pops the
heads of those queues and never rescans the jobs, so its cost per stage
does not grow with the number of tables.

Prep stages run on thread pool ``TP1``. Algorithm 1's inference pool
``TP2`` is the dispatch loop's own thread: inference is numpy under one
GIL, and forwards on threads of their own only compete with the loop for
that lock. So the loop runs inference in *rounds*: it takes every ready
infer stage in the source's order, releases the source's condition, runs
their requests through one
:meth:`~repro.sched.InferenceBatcher.run` (which cuts each phase's
requests into forwards of at most ``max_batch_cols`` columns), applies each
table's readout and reports each table back. Nothing waits for a batch to
fill. Meanwhile a prep worker that finishes a stage refills its own slot
from the prep queue, so the next round carries every table prepared
during this one, and a stage that becomes ready during a round waits at
most for that round (DESIGN §5d).

``prep_workers`` counts prep stages on the CPU, and TP1 has exactly that
many threads: no thread ever sits in a database wait. A prep stage runs
inside :func:`repro.db.cost.deferring`, so its waits (a charged round
trip, an injected fault delay, a retry backoff) are owed, not slept. A
:class:`~repro.core.phases.TableJob` stage whose fetch owes time stops
there and its worker takes the next ready stage; the loop parks the job
on a heap keyed by its due time (the fetch's end plus what it owes) and,
at that time, hands the stage's featurize part to the next free worker,
ahead of any new prep stage. That part finishes a stage already
dispatched: it is not dispatched, or counted, again. No CPU that reads a round trip's result
runs before that round trip's due time, so a stage completes no earlier
than it would have sleeping. A stage machine without a second part is
reported at its due time, and so is an error raised after owed waits.
Parked jobs count as in flight; an aborted run drops them. With
``time_scale=0`` only retry backoffs are owed, so a run without retries
never parks.

The loop is event-driven: workers ``notify_all()`` the condition on
completion, and the loop waits on it when nothing is ready, until the
next parked job's due time at the latest. A firing of the long
``wait_timeout`` safety net with stages on the CPU is counted in
``pipeline.wait_timeouts`` (a healthy run records zero); a timer wakeup
is not. Prep stages run in a copy of the dispatcher's :mod:`contextvars`
context and rounds in its own, so tracer spans of either kind parent to
the run's root span.
The same loop serves the one-shot :meth:`PipelinedExecutor.run` and the
long-lived :class:`~repro.serve.DetectionService`, through their sources.

``SequentialExecutor`` is the ablation baseline: tables processed one by
one, stages strictly in order, no overlap.
"""

from __future__ import annotations

import contextvars
import heapq
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Protocol

from ..db.cost import deferring
from ..obs.metrics import MetricsRegistry, NullMetricsRegistry, global_registry
from .phases import TableJob

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .detector import TasteDetector

__all__ = ["JobSource", "PipelinedExecutor", "SequentialExecutor"]


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
    loop — and one ready queue per stage kind, in its dispatch order.
    Every method below is called *with that condition held*; a source
    that enqueues or cancels jobs from other threads must take the same
    condition and ``notify_all()`` so the loop takes again.
    """

    condition: threading.Condition

    def take(self, kind: str) -> tuple[TableJob, float] | None:
        """The next ready ``kind`` job and its ``perf_counter()`` ready time,
        or ``None``. It is in no queue until filed again; a job that was
        done while it waited (cancelled, expired) is dropped instead."""
        ...

    def ready(self, job: TableJob, since: float) -> None:
        """File ``job`` (not done) under ``job.next_stage_kind()``, ready
        since ``since``: after its stage was reported. A source files the
        jobs it adds itself."""
        ...

    def finished(self) -> bool:
        """True when a drained loop (nothing ready or in flight) should exit."""
        ...

    def aborted(self) -> bool:
        """True when the loop should stop immediately (fatal failure)."""
        ...

    def note_dispatch(self, job: TableJob, kind: str) -> None:
        """A ``kind`` stage of ``job`` was just dispatched (to TP1, or to a round)."""
        ...

    def note_stage_complete(self, job: TableJob) -> None:
        """A stage of ``job`` finished normally."""
        ...

    def note_stage_error(self, job: TableJob, error: BaseException) -> None:
        """A stage of ``job`` raised ``error`` out of ``run_next_stage``."""
        ...


class _StaticSource:
    """The one-shot source behind :meth:`PipelinedExecutor.run`.

    A fixed job list, drained to completion in list order: one heap per
    stage kind, keyed by job index. The first stage failure aborts the
    loop and is re-raised to the caller (matching the pre-service
    executor semantics exactly).
    """

    def __init__(self, jobs: list[TableJob]) -> None:
        self.condition = threading.Condition()
        self.failures: list[BaseException] = []
        self._index = {id(job): index for index, job in enumerate(jobs)}
        self._ready: dict[str, list[tuple[int, float, TableJob]]] = {"prep": [], "infer": []}
        now = time.perf_counter()
        for job in jobs:
            if not job.done:
                self.ready(job, now)

    def take(self, kind: str) -> tuple[TableJob, float] | None:
        queue = self._ready[kind]
        if not queue:
            return None
        _, since, job = heapq.heappop(queue)
        return job, since

    def ready(self, job: TableJob, since: float) -> None:
        heapq.heappush(
            self._ready[job.next_stage_kind()], (self._index[id(job)], since, job)
        )

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

    Ready stages are taken from the source's queues in its order (see the
    module docstring); TP1 has ``prep_workers`` threads, and inference
    runs on the thread that calls :meth:`run_source`, one round per pass
    holding every infer stage ready at its start.

    Parameters
    ----------
    prep_workers:
        Prep stages on the CPU at once (TP1's threads).
    detector:
        The :class:`~repro.core.TasteDetector` whose tables run: a round
        runs through its :meth:`~repro.core.TasteDetector.run_inference`.
        ``None`` hands each request back as its own result, for stage
        machines whose infer stages need no model.
    wait_timeout:
        Safety-net timeout for the dispatch loop's ``condition.wait``.
        Workers always notify on completion, so a firing with prep stages
        on the CPU is a stall and increments ``pipeline.wait_timeouts`` (an
        idle long-lived source times out routinely and is not counted).

    A stage machine the loop drives has ``done``, ``next_stage_kind()``
    and ``run_next_stage()`` (prep stages; a true result means the stage
    stopped owing time and the next call finishes it), and for its infer
    stages ``infer_requests()`` and ``apply_inference(results)``, as
    :class:`~repro.core.phases.TableJob`.
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
        can keep enqueuing jobs. The loop's own state is its prep stages
        on the CPU and its parked jobs; which jobs are ready, and since
        when, is the source's.
        The only shared lock is ``source.condition``.
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
        # Prep stages on the CPU, and those parked until the due time of
        # the waits they owe: ``(due, seq, job, error, left)``, where
        # ``left`` says the stage has a part left to run.
        prep_in_flight = 0
        parked: list[tuple[float, int, TableJob, BaseException | None, bool]] = []
        park_seq = itertools.count()
        # Parked stages whose due time came, with a part left to run: the
        # rest of a stage already dispatched, taken before any new one.
        resumed: list[TableJob] = []

        def report(job: TableJob, error: BaseException | None) -> None:
            # Condition held: the job's stage is over; report it, then its
            # next stage is ready from now.
            if error is None:
                source.note_stage_complete(job)
            else:
                source.note_stage_error(job, error)
            if not job.done:
                source.ready(job, time.perf_counter())

        def resume(job: TableJob, error: BaseException | None, left: bool) -> None:
            # Condition held: the rest of the stage is ready, or it is over.
            if left and error is None:
                resumed.append(job)
            else:
                report(job, error)

        def release_due() -> None:
            # Condition held: resume every parked job whose due time came.
            if not parked:
                return
            now = time.monotonic()
            while parked and parked[0][0] <= now:
                _, _, job, error, left = heapq.heappop(parked)
                resume(job, error, left)
            waiting_gauge.set(len(parked))

        def dispatch(kind: str, taken: tuple[TableJob, float]) -> TableJob:
            job, since = taken
            queue_wait[kind].observe(time.perf_counter() - since)
            dispatch_counters[kind].inc()
            source.note_dispatch(job, kind)
            return job

        def take_prep() -> TableJob | None:
            # Condition held: a resumed stage's rest first (it was
            # dispatched and counted once, at its start), then a new one.
            if source.aborted():
                return None
            if resumed:
                return resumed.pop(0)
            taken = source.take("prep")
            return None if taken is None else dispatch("prep", taken)

        def prep_worker(job: TableJob | None) -> None:
            nonlocal prep_in_flight
            while job is not None:
                error: BaseException | None = None
                left = False
                with deferring() as deferred:
                    try:
                        left = bool(job.run_next_stage())
                    except BaseException as stage_error:  # routed to the source
                        error = stage_error
                due = time.monotonic() + deferred.seconds
                with condition:
                    if deferred.seconds > 0:
                        db_waits.inc(deferred.waits)
                        heapq.heappush(parked, (due, next(park_seq), job, error, left))
                        waiting_gauge.set(len(parked))
                    else:
                        resume(job, error, left)
                    # Refill the slot here, not on the loop's next pass, so
                    # prep keeps flowing while the loop runs a round.
                    release_due()
                    job = take_prep()
                    if job is None:
                        prep_in_flight -= 1
                        in_flight_gauges["prep"].set(prep_in_flight)
                    condition.notify_all()

        with ThreadPoolExecutor(self.prep_workers, thread_name_prefix="taste-prep") as tp1:
            with condition:
                while not source.aborted():
                    pass_started = time.perf_counter()
                    release_due()
                    # Algorithm 1 lines 8-19, from the heads of the ready
                    # queues: every prep stage a TP1 thread can take, then
                    # this pass's inference round.
                    dispatched = False
                    while (
                        prep_in_flight < self.prep_workers
                        and (job := take_prep()) is not None
                    ):
                        prep_in_flight += 1
                        in_flight_gauges["prep"].set(prep_in_flight)
                        # Run the stage inside the dispatcher's context so
                        # spans opened on the worker thread keep the run's
                        # root span as an ancestor.
                        context = contextvars.copy_context()
                        tp1.submit(context.run, prep_worker, job)
                        dispatched = True
                    round_jobs: list[TableJob] = []
                    while (taken := source.take("infer")) is not None:
                        round_jobs.append(dispatch("infer", taken))
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
                    if dispatched:
                        continue
                    # Nothing was taken. With nothing in flight, every slot
                    # was free, so both queues answered ``None``: drained.
                    if not prep_in_flight and not parked and not resumed and source.finished():
                        break
                    # Event-driven wait: workers notify on completion, and
                    # the next due time ends the wait as a timer would. A
                    # timeout with stages on the CPU is a stall; an idle
                    # long-lived source (waiting for submissions) times out
                    # as a matter of course and is not counted.
                    timeout = self.wait_timeout
                    timer = bool(parked) and parked[0][0] - time.monotonic() < timeout
                    if timer:
                        timeout = max(parked[0][0] - time.monotonic(), 0.0)
                    notified = condition.wait(timeout=timeout)
                    wakeups.inc()
                    if not notified and not timer and prep_in_flight:
                        wait_timeouts.inc()
