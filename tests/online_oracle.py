"""Step-driven Greedy contention manager: the empty-plan oracle.

This is the online runtime in its plainest form -- no faults, no
leases, no admission control: every transaction carries a fixed
priority, each idle object travels toward the highest-priority pending
transaction that requests it, and a transaction commits the moment all
its objects sit at its node.  The loop rescans the whole pending set
for commits and every object for dispatch at each step it visits.
:func:`repro.online.run_resilient` on the empty plan must reproduce it
field by field, and must audit exactly its steps plus one check per hop
(``tests/test_resilient.py``, ``tests/test_resilient_parity.py``).
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict

import numpy as np

from repro.core.schedule import Schedule
from repro.errors import SchedulingError
from repro.online.arrivals import OnlineWorkload
from repro.online.report import OnlineDegradationReport
from repro.online.resilient import OnlineResult, timestamp_priority

__all__ = ["run_online"]


def run_online(
    workload: OnlineWorkload,
    priority: Callable[..., Dict[int, tuple]] = timestamp_priority,
    rng: np.random.Generator | None = None,
    max_steps: int | None = None,
    sanitizer=None,
) -> OnlineResult:
    """Run the priority contention manager to completion.

    ``priority`` maps the workload (and optional rng) to a total order;
    lower tuples win.  Raises :class:`SchedulingError` if the run exceeds
    ``max_steps`` (defaults to a generous bound that a livelock-free run
    cannot hit: horizon plus ``m`` serial trips across the diameter).
    ``sanitizer`` is an optional
    :class:`~repro.sim.sanitizer.InvariantSanitizer` whose step hooks
    audit every commit and dispatch.
    """
    inst = workload.instance
    net = inst.network
    prio = priority(workload, rng) if rng is not None else priority(workload)
    release_times = {a.txn.tid: a.release for a in workload.arrivals}
    if max_steps is None:
        max_steps = (
            workload.horizon + (inst.m + 1) * (net.diameter() + 1) + 16
        )

    position: Dict[int, int] = dict(inst.object_homes)
    in_transit: list[tuple[int, int, int]] = []  # (arrival, obj, dest) heap
    moving: set[int] = set()
    pending: Dict[int, object] = {}  # tid -> Transaction
    commits: Dict[int, int] = {}
    arrivals = list(workload.arrivals)
    ai = 0
    t = 1  # commit times are >= 1; release-0 work is picked up at step 1

    def best_requester(obj: int):
        cands = [txn for txn in pending.values() if obj in txn.objects]
        if not cands:
            return None
        return min(cands, key=lambda txn: prio[txn.tid])

    while (ai < len(arrivals)) or pending or in_transit:
        if t > max_steps:
            raise SchedulingError(
                f"online runtime exceeded {max_steps} steps "
                f"({len(pending)} pending)"
            )
        # releases
        while ai < len(arrivals) and arrivals[ai].release <= t:
            txn = arrivals[ai].txn
            pending[txn.tid] = txn
            ai += 1
        # deliveries
        while in_transit and in_transit[0][0] <= t:
            _, obj, dest = heapq.heappop(in_transit)
            position[obj] = dest
            moving.discard(obj)
        # commits: any pending transaction with all objects on-node
        committed_now = [
            txn
            for txn in pending.values()
            if all(
                o not in moving and position[o] == txn.node
                for o in txn.objects
            )
        ]
        for txn in sorted(committed_now, key=lambda txn: prio[txn.tid]):
            if sanitizer is not None:
                sanitizer.check_commit(t, txn, position, moving, release_times)
            commits[txn.tid] = t
            del pending[txn.tid]
        if sanitizer is not None:
            sanitizer.check_step(t, position, moving, pending, net.n)
        # dispatch: idle objects chase their best requester
        for obj in sorted(position):
            if obj in moving:
                continue
            target = best_requester(obj)
            if target is None or position[obj] == target.node:
                continue
            if sanitizer is not None:
                sanitizer.check_dispatch(t, obj, target, pending, prio)
            d = net.dist(position[obj], target.node)
            heapq.heappush(in_transit, (t + d, obj, target.node))
            moving.add(obj)
        # advance to the next interesting time
        nxt = []
        if ai < len(arrivals):
            nxt.append(arrivals[ai].release)
        if in_transit:
            nxt.append(in_transit[0][0])
        t = max(t + 1, min(nxt)) if nxt else t + 1

    for tid, ct in commits.items():
        if ct < release_times[tid]:  # pragma: no cover - construction prevents it
            raise SchedulingError(
                f"transaction {tid} committed before release"
            )
    report = OnlineDegradationReport(
        released=workload.m, committed=len(commits), lost=(), shed=(),
        retries=0, reroutes=0, rehomed=0, fault_count=0,
        sanitizer_checks=sanitizer.checks if sanitizer is not None else 0,
        violations=len(sanitizer.violations) if sanitizer is not None else 0,
    )
    return OnlineResult(
        schedule=Schedule(inst, commits, meta={"scheduler": "online-priority"}),
        commits=commits,
        release=release_times,
        report=report,
    )
