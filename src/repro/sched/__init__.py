"""Cross-table inference batching (the paper's S2 GPU batching).

Every detector sends its inference through :class:`InferenceBatcher`.
The pipelined executor's dispatch loop gathers the chunk requests of
every table ready for inference into one round and hands them over at
once, so chunks from different tables share collated ADTD forwards on
the loop's own thread; a sequential run hands over one table's stage at
a time. Width bucketing (:func:`bucket_width`) keeps batched and
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
    "run_phase1",
    "run_phase2",
]
