"""Cross-table inference batching (the paper's S2 GPU batching).

The pipelined executor's dispatch loop gathers the chunk requests of
every table ready for inference into one round and hands them to
:class:`InferenceBatcher`, which coalesces chunks from different tables
into collated ADTD forwards on the loop's own thread and slices results
back per chunk. Width bucketing (:func:`bucket_width`) keeps batched and
unbatched runs bitwise identical; see :mod:`repro.sched.forward` for why.
"""

from .batcher import InferenceBatcher
from .forward import (
    Phase1Request,
    Phase1Result,
    Phase2Request,
    Phase2Result,
    bucket_width,
    group_requests,
    run_grouped,
    run_phase1,
    run_phase2,
)

__all__ = [
    "InferenceBatcher",
    "Phase1Request",
    "Phase1Result",
    "Phase2Request",
    "Phase2Result",
    "bucket_width",
    "group_requests",
    "run_grouped",
    "run_phase1",
    "run_phase2",
]
