"""Pipelined execution of TASTE over many tables (paper Sec. 5, Algorithm 1).

Data-preparation stages (I/O + CPU) and inference stages (model compute)
use different resources, so interleaving them across tables raises
utilization: while table A is in inference, table B's content fetch can be
in flight. Two thread pools (``TP1`` for preparation, ``TP2`` for
inference) drain a queue of stages; a stage is *eligible* once all previous
stages of the same table have finished (Definition 5.1).

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

The dispatch loop is event-driven: workers ``notify_all()`` the condition
on completion and the loop blocks in ``condition.wait()`` until then (a
long ``wait_timeout`` remains as a safety net only; timeouts are counted
in the ``pipeline.wait_timeouts`` metric and a healthy run records zero).
Stage callables run inside a copy of the dispatcher's :mod:`contextvars`
context, so tracer spans opened on worker threads parent to the run's
root span.

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
from ..obs import NULL_METRICS
from ..obs.metrics import MetricsRegistry, NullMetricsRegistry, global_registry
from .phases import TableJob

if TYPE_CHECKING:
    from ..sched.batcher import InferenceBatcher

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
        """A stage of ``job`` was just handed to the ``kind`` pool."""
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
    """Algorithm 1: stage queue drained by two thread pools.

    TP1 is CPU slots plus overlapped waits: ``prep_workers`` prep stages
    may run on the CPU at once, and a stage blocked in a real database
    wait does not count against them (see the module docstring). TP1's
    threads, ``max(prep_workers, PREP_THREADS)``, bound both together.

    Parameters
    ----------
    prep_workers:
        Prep stages on the CPU at once (TP1's slots).
    infer_workers:
        Size of TP2 (inference pool).
    wait_timeout:
        Safety-net timeout for the dispatch loop's ``condition.wait``.
        Workers always notify on completion, so with work outstanding
        this should never fire; a firing with stages pending or running
        increments ``pipeline.wait_timeouts``. (An idle long-lived source
        waiting for new jobs times out routinely; that is not a stall and
        is not counted.)
    batcher:
        Optional :class:`~repro.sched.InferenceBatcher`. When set, the
        executor serves it for the duration of each run and feeds it
        backlog hints (how many prep/infer stages are in flight or
        dispatchable) so the batcher can flush adaptively: grow batches
        while more submitters are coming, flush immediately once the
        pipeline's tail leaves no prep work anywhere.
    """

    def __init__(
        self,
        prep_workers: int = 2,
        infer_workers: int = 2,
        wait_timeout: float = 5.0,
        batcher: "InferenceBatcher | None" = None,
    ) -> None:
        if prep_workers < 1 or infer_workers < 1:
            raise ValueError("both thread pools need at least one worker")
        self.prep_workers = prep_workers
        self.infer_workers = infer_workers
        self.wait_timeout = wait_timeout
        self.batcher = batcher

    def run(
        self,
        jobs: list[TableJob],
        metrics: MetricsRegistry | NullMetricsRegistry | None = None,
    ) -> None:
        if not jobs:
            return
        source = _StaticSource(jobs)
        if self.batcher is not None:
            # Serve the batcher for exactly this run; the context exits
            # (draining the queue and joining the compute thread) only
            # after both worker pools have finished, so no submitter can
            # ever block on a stopped batcher.
            with self.batcher.serving():
                self.batcher.note_state(len(jobs), 0)
                self.run_source(source, metrics)
        else:
            self.run_source(source, metrics)
        if source.failures:
            raise source.failures[0]

    def run_source(
        self,
        source: JobSource,
        metrics: MetricsRegistry | NullMetricsRegistry | None = None,
    ) -> None:
        """Drain ``source`` through the two thread pools until it finishes.

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
        # ``in_flight["prep"]`` counts prep stages on the CPU; ``waiting``
        # those blocked in a real wait, which hold a thread but no slot.
        in_flight = {"prep": 0, "infer": 0}
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
            nonlocal waiting
            with condition:
                in_flight["prep"] -= 1
                waiting += 1
                in_flight_gauges["prep"].set(in_flight["prep"])
                waiting_gauge.set(waiting)
                db_waits.inc()
                condition.notify_all()
            try:
                yield
            finally:
                with condition:
                    waiting -= 1
                    in_flight["prep"] += 1
                    in_flight_gauges["prep"].set(in_flight["prep"])
                    waiting_gauge.set(waiting)

        def worker(job: TableJob, kind: str) -> None:
            error: BaseException | None = None
            if kind == "prep":
                # Scoped to this dispatch's context copy; gone when it ends.
                WAIT_SCOPE.set(slot_released)
            try:
                job.run_next_stage()
            except BaseException as stage_error:  # routed to the source
                error = stage_error
            finally:
                with condition:
                    in_flight[kind] -= 1
                    in_flight_gauges[kind].set(in_flight[kind])
                    running.discard(id(job))
                    if job.done:
                        eligible_since.pop(id(job), None)
                    else:
                        eligible_since[id(job)] = time.perf_counter()
                    if error is None:
                        source.note_stage_complete(job)
                    else:
                        source.note_stage_error(job, error)
                    condition.notify_all()

        limits = {"prep": self.prep_workers, "infer": self.infer_workers}
        prep_threads = max(self.prep_workers, PREP_THREADS)
        with ThreadPoolExecutor(prep_threads, thread_name_prefix="taste-prep") as tp1, \
                ThreadPoolExecutor(self.infer_workers, thread_name_prefix="taste-infer") as tp2:
            pools = {"prep": tp1, "infer": tp2}
            with condition:
                while True:
                    if source.aborted():
                        break
                    pending = [job for job in source.pending() if not job.done]
                    if not pending and not running and source.finished():
                        break
                    pass_started = time.perf_counter()
                    for job in pending:
                        eligible_since.setdefault(id(job), pass_started)
                    dispatched = False
                    for kind in ("prep", "infer"):
                        if in_flight[kind] >= limits[kind]:
                            continue
                        if kind == "prep" and in_flight["prep"] + waiting >= prep_threads:
                            continue  # every TP1 thread is taken
                        # First eligible stage of the right kind (Algorithm 1
                        # lines 8-19): the job's *next* stage must match and
                        # the job must not already be running a stage.
                        for job in pending:
                            if id(job) in running:
                                continue
                            if job.next_stage_kind() != kind:
                                continue
                            now = time.perf_counter()
                            queue_wait[kind].observe(now - eligible_since[id(job)])
                            running.add(id(job))
                            in_flight[kind] += 1
                            in_flight_gauges[kind].set(in_flight[kind])
                            dispatch_counters[kind].inc()
                            source.note_dispatch(job, kind)
                            # Run the stage inside the dispatcher's context so
                            # spans opened on the worker thread keep the run's
                            # root span as an ancestor.
                            context = contextvars.copy_context()
                            pools[kind].submit(context.run, worker, job, kind)
                            dispatched = True
                            break
                    dispatch_seconds.observe(time.perf_counter() - pass_started)
                    if self.batcher is not None:
                        # prep backlog: stages in flight, waiting or dispatchable
                        # (how much future infer work exists). infer backlog: stages
                        # that can still submit before the next flush — running
                        # stages plus dispatchable ones with a free TP2 slot.
                        # Dispatchable stages *without* a slot are excluded:
                        # they only start after a flush frees a worker, so
                        # counting them would make the batcher wait on itself.
                        prep_backlog = 0
                        dispatchable_infer = 0
                        for job in pending:
                            if id(job) in running:
                                continue
                            kind = job.next_stage_kind()
                            if kind == "prep":
                                prep_backlog += 1
                            elif kind == "infer":
                                dispatchable_infer += 1
                        free_slots = limits["infer"] - in_flight["infer"]
                        self.batcher.note_state(
                            in_flight["prep"] + waiting + prep_backlog,
                            in_flight["infer"] + min(free_slots, dispatchable_infer),
                        )
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
