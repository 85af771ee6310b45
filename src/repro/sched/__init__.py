"""Cross-table inference batching (the paper's S2 GPU batching).

Every detector sends its inference through :class:`InferenceBatcher`.
The pipelined executor's dispatch loop gathers the chunk requests of
every table ready for inference into one round and hands them over at
once, so chunks from different tables share ADTD forwards on the loop's
own thread; a sequential run hands over one table's stage at a time.
Each forward computes every table at its own real widths, so batched and
unbatched runs are bitwise identical; see :mod:`repro.sched.forward`.
"""

from .batcher import InferenceBatcher
from .forward import (
    Phase1Request,
    Phase1Result,
    Phase2Request,
    Phase2Result,
    run_phase1,
    run_phase2,
)

__all__ = [
    "InferenceBatcher",
    "Phase1Request",
    "Phase1Result",
    "Phase2Request",
    "Phase2Result",
    "run_phase1",
    "run_phase2",
]
