"""``repro.serve`` — the multi-tenant detection service.

The cloud-deployment layer of the reproduction (paper § deployment): one
warm :class:`~repro.core.TasteDetector` — model, compiled plans, inference
batcher, connection pools — shared by many concurrent tenants through
:class:`DetectionService`. Admission control (per-tenant token buckets +
a bounded job queue) sheds load with typed
:class:`~repro.errors.Overloaded` rejections; a priority/fairness-aware
scheduler interleaves tables from all live jobs onto the pipelined
executor; :class:`JobHandle` delivers streamed per-table results, final
reports, cancellation and deadlines.
"""

from .admission import AdmissionController, TokenBucket
from .config import ServiceConfig, TenantQuota
from .job import Job, JobHandle, JobStatus
from .service import DetectionService

__all__ = [
    "DetectionService",
    "ServiceConfig",
    "TenantQuota",
    "JobHandle",
    "JobStatus",
    "Job",
    "AdmissionController",
    "TokenBucket",
]
