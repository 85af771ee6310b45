"""Job lifecycle: the service-internal :class:`Job` record and the public
:class:`JobHandle` clients hold.

One submitted detection request is one :class:`Job`: a batch of
:class:`~repro.core.phases.TableJob` stage machines plus admission
metadata (tenant, priority, deadline) and delivery state (streamed
per-table results, the final report). All mutable job state is guarded
by the *service-wide* condition — the same one the dispatch loop waits
on — so completion events, cancellations and waiting clients all
synchronize through a single lock with no ordering hazards.

Statuses move strictly forward::

    queued -> running -> completed
                   \\-> cancelled

A job whose deadline expires is *completed* (with degraded/failed
tables carrying partial results, PR 4 semantics), not cancelled;
``cancelled`` is reserved for explicit :meth:`JobHandle.cancel`.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Callable, Iterator

from ..errors import Cancelled, DeadlineExceeded
from ..core.phases import TableJob
from ..core.results import DetectionReport, TableResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..db.server import CloudDatabaseServer
    from ..faults.plan import FaultPlan

__all__ = ["JobStatus", "Job", "JobHandle"]


class JobStatus:
    """String constants for :meth:`JobHandle.status`."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    CANCELLED = "cancelled"


class Job:
    """Service-internal state of one submitted detection request.

    Not public API — clients interact through :class:`JobHandle`. Every
    mutable field is written under ``condition`` (the service-wide
    condition) by the service/dispatch machinery; ``cancel_requested``
    is additionally *read* lock-free by the connection-acquire abort
    probe, which is safe because it is a monotonic bool flag.
    """

    def __init__(
        self,
        job_id: str,
        seq: int,
        tenant: str,
        server: "CloudDatabaseServer",
        table_names: list[str],
        priority: int,
        deadline_at: float | None,
        fault_plan: "FaultPlan | None",
        condition: threading.Condition,
    ) -> None:
        self.job_id = job_id
        self.seq = seq
        self.tenant = tenant
        self.server = server
        self.table_names = table_names
        self.priority = priority
        self.deadline_at = deadline_at
        self.fault_plan = fault_plan
        self.condition = condition
        self.status: str = JobStatus.QUEUED
        self.cancel_requested = False
        self.expired = False
        self.table_jobs: list[TableJob] = []
        self.running_ids: set[int] = set()  # id(TableJob) mid-stage right now
        self.done_prefix = 0  # leading table_jobs known to be done
        self.streamed: list[TableResult] = []  # completed, in completion order
        self.report: DetectionReport | None = None
        self.error: BaseException | None = None
        self.injector = None  # FaultInjector for fault-plan jobs
        self.connection = None  # the job's _JobConnection facade
        self.submitted_perf = time.perf_counter()
        self.finished_perf: float | None = None

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.status in (JobStatus.COMPLETED, JobStatus.CANCELLED)

    @property
    def inflight(self) -> int:
        """Stages of this job currently executing on a worker thread."""
        return len(self.running_ids)

    def is_running(self, table_job: TableJob) -> bool:
        return id(table_job) in self.running_ids

    def deadline_passed(self, now: float | None = None) -> bool:
        if self.deadline_at is None:
            return False
        now = now if now is not None else time.monotonic()
        return now >= self.deadline_at

    def deadline_remaining(self, now: float | None = None) -> float | None:
        """Seconds until the deadline (``None`` when the job has none)."""
        if self.deadline_at is None:
            return None
        now = now if now is not None else time.monotonic()
        return self.deadline_at - now

    def abort_probe(self) -> bool:
        """Lock-free cancellation probe for blocking waits (pool acquire)."""
        return self.cancel_requested or self.deadline_passed()


class JobHandle:
    """Client-side handle to one submitted job.

    All methods are thread-safe; any number of threads may wait on the
    same handle. ``cancel`` is cooperative: stages already running
    finish their current stage, everything not yet started is skipped,
    and the job's pooled connection is returned.
    """

    def __init__(self, job: Job, cancel: Callable[[Job], bool]) -> None:
        self._job = job
        self._cancel = cancel

    # ------------------------------------------------------------------
    @property
    def job_id(self) -> str:
        return self._job.job_id

    @property
    def tenant(self) -> str:
        return self._job.tenant

    def status(self) -> str:
        with self._job.condition:
            return self._job.status

    # ------------------------------------------------------------------
    def result(self, timeout: float | None = None) -> DetectionReport:
        """Block until the job finishes and return its report.

        Raises :class:`~repro.errors.DeadlineExceeded` when ``timeout``
        elapses first, :class:`~repro.errors.Cancelled` when the job was
        cancelled, and re-raises the job's fatal error if it had one. A
        job whose *own* deadline expired still returns a report — with
        degraded/failed tables carrying the partial results.
        """
        job = self._job
        wait_deadline = None if timeout is None else time.monotonic() + timeout
        with job.condition:
            while not job.finished:
                if wait_deadline is None:
                    job.condition.wait()
                    continue
                remaining = wait_deadline - time.monotonic()
                if remaining <= 0:
                    raise DeadlineExceeded(
                        f"job {job.job_id}: result() timed out after {timeout:.3f}s "
                        f"(status: {job.status})"
                    )
                # Spurious-wakeup safe: the loop recomputes the remaining
                # wait on every wakeup, so it never oversleeps ``timeout``.
                job.condition.wait(timeout=remaining)
            if job.status == JobStatus.CANCELLED:
                raise Cancelled(f"job {job.job_id} was cancelled")
            if job.error is not None:
                raise job.error
            assert job.report is not None
            return job.report

    def stream(self) -> Iterator[TableResult]:
        """Yield per-table results as tables complete, in completion order.

        The iterator ends when the job finishes; tables a cancellation or
        deadline skipped are simply never yielded. Results are yielded
        outside the service lock, so a slow consumer never stalls the
        dispatch loop.
        """
        job = self._job
        index = 0
        while True:
            with job.condition:
                while len(job.streamed) <= index and not job.finished:
                    job.condition.wait()
                if len(job.streamed) > index:
                    item = job.streamed[index]
                    index += 1
                else:
                    return
            yield item

    def cancel(self) -> bool:
        """Request cancellation; ``True`` if the job was still live."""
        return self._cancel(self._job)
