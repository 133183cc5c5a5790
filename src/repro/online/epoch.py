"""Epoch batching: the paper's offline schedulers applied online.

A natural way to carry the paper's results into the online setting is to
batch the transactions released while the previous batch runs, and run
the topology-appropriate *offline* scheduler on each batch (with objects
starting wherever the previous batch left them).  Only the first batch
waits for the ``epoch`` step; every later batch starts right after its
predecessor's schedule ends (or at the next release, if none is
pending), so the batches follow the schedules' makespans, not a fixed
epoch grid.  Feasibility composes exactly as in
:mod:`repro.core.phasing`; what the online experiments measure is how
the batched offline guarantees trade response time against the purely
reactive priority manager.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..core.dispatch import resolve_scheduler
from ..core.phasing import PhaseState, run_phase
from ..core.scheduler import Scheduler
from .arrivals import OnlineWorkload
from .report import OnlineDegradationReport
from .resilient import OnlineResult

__all__ = ["run_epoch_batched"]


def run_epoch_batched(
    workload: OnlineWorkload,
    scheduler: Scheduler | None = None,
    epoch: int | None = None,
    rng: np.random.Generator | None = None,
) -> OnlineResult:
    """Schedule ``workload`` in batches with an offline scheduler each.

    ``scheduler`` defaults to the topology dispatch of the underlying
    network; ``epoch`` defaults to the network diameter + 1.  Each batch
    starts at the boundary ``max(t + 1, r, epoch)`` and contains every
    transaction released by then, where ``t`` is the step the previous
    batch's schedule ends at (0 before the first batch) and ``r`` the
    next pending release; so the schedule never commits anything before
    its release.  ``epoch`` is an absolute step, not a period:
    it delays only the first batch, since every later ``t + 1`` already
    exceeds it.  Every transaction commits, so the result's degradation
    report is all zeros apart from ``released == committed == m``.
    """
    inst = workload.instance
    if scheduler is None:
        scheduler = resolve_scheduler(topology=inst.network.topology.name)
    if epoch is None:
        epoch = inst.network.diameter() + 1

    state = PhaseState(inst)
    remaining = list(workload.arrivals)
    while remaining:
        # the next batch boundary: past the previous batch, late enough
        # to include the next arrival, and (first batch only) at epoch
        boundary = max(state.time + 1, remaining[0].release, epoch)
        batch = [a for a in remaining if a.release <= boundary]
        remaining = remaining[len(batch):]
        # the batch cannot start before its last member arrives
        state.time = max(state.time, boundary)
        run_phase(state, [a.txn.tid for a in batch], scheduler, rng)

    schedule = state.finish(
        {"scheduler": f"epoch-batch({scheduler.name})", "epoch": epoch}
    )
    release: Dict[int, int] = {
        a.txn.tid: a.release for a in workload.arrivals
    }
    report = OnlineDegradationReport(
        released=workload.m, committed=workload.m, lost=(), shed=(),
        retries=0, reroutes=0, rehomed=0, fault_count=0,
        sanitizer_checks=0, violations=0,
    )
    return OnlineResult(
        schedule=schedule, commits=dict(schedule.commit_times),
        release=release, report=report,
    )
