"""Fault-tolerant execution layer (§9 open questions, beyond ``phi``).

The paper's conclusion leaves open how its offline schedules behave when
the system misbehaves; :mod:`repro.sim.asynchrony` covers uniform jitter
(the synchronicity factor) and this package covers everything sharper:
declarative fault plans (:mod:`repro.faults.plan`), a shared deterministic
backoff policy (:mod:`repro.faults.backoff`), a fault-aware replay engine
that reroutes, retries, defers, and recovers instead of aborting
(:mod:`repro.faults.engine`), recovery rescheduling of crash-stranded
suffixes (:mod:`repro.faults.recovery`), and measured degradation reports
(:mod:`repro.faults.report`).  Semantics are documented in docs/FAULTS.md;
the E17 experiment sweeps fault intensity against makespan stretch, and
the E18 experiment drives the same plans *live* through the resilient
online runtime (:mod:`repro.online.resilient`).
"""

from .backoff import RetryPolicy
from .engine import FaultyTrace, faulty_execute
from .plan import (
    DelaySpike,
    FaultPlan,
    LinkFailure,
    NodeCrash,
    ObjectStall,
    random_fault_plan,
)
from .recovery import reschedule_survivors
from .report import DegradationReport, degradation_report
from .routing import degraded_network, path_avoiding, route_avoiding

__all__ = [
    "LinkFailure",
    "NodeCrash",
    "ObjectStall",
    "DelaySpike",
    "FaultPlan",
    "random_fault_plan",
    "RetryPolicy",
    "FaultyTrace",
    "faulty_execute",
    "reschedule_survivors",
    "DegradationReport",
    "degradation_report",
    "path_avoiding",
    "route_avoiding",
    "degraded_network",
]
