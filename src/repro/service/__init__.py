"""Continuous-arrival scheduling service: batch scheduling, run forever.

The rest of the repo schedules *finite* instances; this package wraps
those engines in a long-lived loop that consumes an unbounded
:class:`~repro.workloads.streams.ArrivalStream`, batches each fixed
arrival window through the existing machinery, and carries uncommitted
work forward in a priority-ordered backlog.  Robustness is the point:
watermark backpressure with hysteresis, per-transaction deadlines,
bounded deterministic window retry under live fault injection, and an
online saturation detector that sheds load before queues diverge.

Public surface::

    from repro.service import (
        SchedulingService, ServiceConfig, ServiceReport,
        SaturationDetector, run_service,
    )
"""

from .config import ServiceConfig
from .loop import SchedulingService, run_service
from .report import ServiceReport
from .saturation import SaturationDetector

__all__ = [
    "SchedulingService",
    "ServiceConfig",
    "ServiceReport",
    "SaturationDetector",
    "run_service",
]
