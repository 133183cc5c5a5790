"""Online scheduling extension (§9, open question 1).

The batch model extended with release times: one priority-driven
contention manager, :func:`run_resilient`, which consumes a live
:class:`~repro.faults.plan.FaultPlan` (empty by default) with lease-based
crash recovery and high-water load shedding (docs/FAULTS.md), and epoch
batching of the paper's offline schedulers (:func:`run_epoch_batched`).
Both return an :class:`OnlineResult`.
"""

from .arrivals import OnlineWorkload, TimedTransaction, poisson_workload
from .epoch import run_epoch_batched
from .report import OnlineDegradationReport
from .resilient import (
    OnlineResult,
    random_priority,
    run_resilient,
    timestamp_priority,
)

__all__ = [
    "TimedTransaction",
    "OnlineWorkload",
    "poisson_workload",
    "OnlineResult",
    "run_epoch_batched",
    "timestamp_priority",
    "random_priority",
    "run_resilient",
    "OnlineDegradationReport",
]
