"""Step-driven reference for :func:`repro.online.run_resilient`.

This is the fault-aware online runtime in its plain, hop-by-hop form:
the loop visits every step at which any hop ends, advances every flight
one hop at a time, rescans the whole pending set for commits, and
rescans every object for dispatch.  The production engine is
event-driven (one event per fault-free flight segment, per-object
waiter sets, dirty-set commit and dispatch) and must reproduce this
oracle exactly -- commits, report, recorded events and error messages
(``tests/test_resilient_parity.py``).  Only the sanitizer's check count
may differ: the oracle audits every step it visits, the engine only the
steps at which something happens.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.schedule import Schedule
from repro.errors import FaultError, SchedulingError
from repro.faults.backoff import RetryPolicy
from repro.faults.plan import FaultPlan
from repro.faults.routing import path_avoiding
from repro.obs import events as obs_events
from repro.obs.recorder import Recorder, active
from repro.online.arrivals import OnlineWorkload, TimedTransaction
from repro.online.report import OnlineDegradationReport
from repro.online.resilient import OnlineResult, timestamp_priority
from repro.sim.sanitizer import InvariantSanitizer

__all__ = ["run_resilient_stepwise"]


class _Flight:
    """One object's live leg: a lease, a path, and its current hop."""

    __slots__ = ("obj", "dest", "target_tid", "path", "hop_end", "retry_at",
                 "attempt")

    def __init__(self, obj: int, dest: int, target_tid: int) -> None:
        self.obj = obj
        self.dest = dest
        self.target_tid = target_tid
        self.path: Optional[List[int]] = None  # path[0] == current position
        self.hop_end: Optional[int] = None  # set while traversing a hop
        self.retry_at: Optional[int] = None  # set while blocked
        self.attempt = 0


def run_resilient_stepwise(
    workload: OnlineWorkload,
    plan: FaultPlan | None = None,
    priority: Callable[..., Dict[int, tuple]] = timestamp_priority,
    rng: np.random.Generator | None = None,
    policy: RetryPolicy | None = None,
    high_water: int | None = None,
    sanitizer: InvariantSanitizer | None = None,
    recorder: Recorder | None = None,
) -> OnlineResult:
    """The resilient runtime, one hop and one full rescan per step."""
    rec = active(recorder)
    plan = plan if plan is not None else FaultPlan()
    policy = policy or RetryPolicy()
    inst = workload.instance
    net = inst.network
    plan.validate_against(net)
    prio = priority(workload, rng) if rng is not None else priority(workload)
    max_steps = workload.horizon + (inst.m + 1) * (net.diameter() + 1) + 16
    if not plan.is_empty:
        max_steps += plan.latest_time + (
            policy.budget + net.diameter() + 1
        ) * (inst.m + 1)

    position: Dict[int, int] = dict(inst.object_homes)
    flights: Dict[int, _Flight] = {}
    pending: Dict[int, object] = {}  # tid -> Transaction
    commits: Dict[int, int] = {}
    lost: List[Tuple[int, str]] = []
    shed: List[Tuple[int, str]] = []
    unrecoverable: set[int] = set()
    dead: set[int] = set()

    arrivals = list(workload.arrivals)
    release = {a.txn.tid: a.release for a in arrivals}
    crash_seq = list(plan.crash_events)
    ai = ci = 0
    retries = reroutes = rehomed = 0
    t = 1

    def best_requester(obj: int):
        cands = [txn for txn in pending.values() if obj in txn.objects]
        if not cands:
            return None
        return min(cands, key=lambda txn: prio[txn.tid])

    def _backoff(fl: _Flight, now: int) -> None:
        nonlocal retries
        fl.attempt += 1
        if fl.attempt > policy.max_retries:
            raise FaultError(
                f"object {fl.obj} stuck at node {position[fl.obj]} en "
                f"route to node {fl.dest} past the retry budget "
                f"({policy.max_retries} probes)"
            )
        retries += 1
        fl.hop_end = None
        fl.retry_at = now + policy.wait(fl.attempt)
        if rec.enabled:
            rec.record(
                obs_events.RetryEvent(
                    now, fl.obj, position[fl.obj], fl.attempt,
                    policy.wait(fl.attempt),
                )
            )
            rec.count("resilient.retries")

    def _try_depart(fl: _Flight, now: int) -> None:
        """Enter the next hop at ``now``, or back off if blocked."""
        nonlocal reroutes
        pos = position[fl.obj]
        if plan.stall(fl.obj, now) is not None:
            _backoff(fl, now)
            return
        stale = (
            fl.path is None
            or len(fl.path) < 2
            or fl.path[0] != pos
            or plan.link_down(pos, fl.path[1], now) is not None
        )
        if stale:
            down = plan.down_edges(now)
            path = path_avoiding(net, pos, fl.dest, down)
            if path is None:
                fl.path = None
                _backoff(fl, now)
                return
            if down and path != net.shortest_path(pos, fl.dest):
                reroutes += 1
                if rec.enabled:
                    rec.record(
                        obs_events.RerouteEvent(now, fl.obj, pos, fl.dest)
                    )
                    rec.count("resilient.reroutes")
            fl.path = path
        nxt = fl.path[1]
        if sanitizer is not None:
            sanitizer.check_hop(now, pos, nxt, plan)
        fl.attempt = 0
        fl.retry_at = None
        factor, _ = plan.delay_factor(pos, nxt, now)
        fl.hop_end = now + int(math.ceil(net.edge_weight(pos, nxt) * factor))

    def _rehome(obj: int) -> None:
        """Restore ``obj`` from its durable home after a lease died."""
        nonlocal rehomed
        prev = position[obj]
        flights.pop(obj, None)
        home = inst.home(obj)
        position[obj] = home
        if home in dead:
            unrecoverable.add(obj)
            recovered = False
        else:
            rehomed += 1
            recovered = True
        if rec.enabled:
            rec.record(
                obs_events.LeaseRecoveryEvent(t, obj, prev, home, recovered)
            )
            rec.count("resilient.lease_recoveries")

    def _drop_pending(tid: int, reason: str) -> None:
        lost.append((tid, reason))
        if rec.enabled:
            rec.record(obs_events.LostEvent(t, tid, reason))
            rec.count("resilient.lost")
        del pending[tid]

    def _crash(node: int) -> None:
        """Fire ``node``'s crash: kill its compute plane, re-home leases."""
        dead.add(node)
        if rec.enabled:
            rec.record(obs_events.CrashEvent(t, node))
            rec.count("resilient.crashes")
        for tid in sorted(pending):
            if pending[tid].node == node:
                _drop_pending(tid, f"node {node} crashed")
        for obj in sorted(position):
            fl = flights.get(obj)
            leased_here = fl is not None and fl.dest == node
            parked_here = fl is None and position[obj] == node
            if leased_here or parked_here:
                _rehome(obj)
        if unrecoverable:
            for tid in sorted(pending):
                gone = pending[tid].objects & unrecoverable
                if gone:
                    _drop_pending(
                        tid, f"objects {sorted(gone)} unrecoverable"
                    )
        # flights whose waiter just vanished and are not mid-hop stop now;
        # mid-hop flights drain their hop and stop at its far end
        for obj in sorted(flights):
            fl = flights[obj]
            if fl.target_tid not in pending and fl.hop_end is None:
                del flights[obj]

    def _admit(timed: TimedTransaction) -> None:
        txn = timed.txn
        if txn.node in dead:
            reason = f"node {txn.node} crashed"
            lost.append((txn.tid, reason))
            if rec.enabled:
                rec.record(obs_events.LostEvent(t, txn.tid, reason))
                rec.count("resilient.lost")
            return
        gone = txn.objects & unrecoverable
        if gone:
            reason = f"objects {sorted(gone)} unrecoverable"
            lost.append((txn.tid, reason))
            if rec.enabled:
                rec.record(obs_events.LostEvent(t, txn.tid, reason))
                rec.count("resilient.lost")
            return
        if rec.enabled:
            rec.record(
                obs_events.AdmissionEvent(t, txn.tid, "admit", len(pending))
            )
            rec.count("resilient.admitted")
        pending[txn.tid] = txn

    while ai < len(arrivals) or pending or flights:
        if t > max_steps:
            raise SchedulingError(
                f"resilient runtime exceeded {max_steps} steps "
                f"({len(pending)} pending, {len(flights)} in flight)"
            )
        # crashes the timeline has reached, in (time, node) order
        while ci < len(crash_seq) and crash_seq[ci].time <= t:
            _crash(crash_seq[ci].node)
            ci += 1
        # deliveries and probes: advance every flight to time t
        for obj in sorted(flights):
            fl = flights.get(obj)
            if fl is None:
                continue
            while fl.hop_end is not None and fl.hop_end <= t:
                position[obj] = fl.path[1]
                fl.path = fl.path[1:]
                fl.hop_end = None
                if position[obj] == fl.dest or fl.target_tid not in pending:
                    del flights[obj]
                    fl = None
                    break
                _try_depart(fl, t)
            if fl is not None and fl.retry_at is not None and fl.retry_at <= t:
                _try_depart(fl, t)
        # admission: shed what arrives at or past the high-water mark
        while ai < len(arrivals) and arrivals[ai].release <= t:
            timed = arrivals[ai]
            ai += 1
            if high_water is None or len(pending) < high_water:
                _admit(timed)
                continue
            shed.append((
                timed.txn.tid,
                f"{len(pending)} pending >= high-water {high_water} at t={t}",
            ))
            if rec.enabled:
                rec.record(
                    obs_events.AdmissionEvent(
                        t, timed.txn.tid, "shed", len(pending)
                    )
                )
                rec.count("resilient.shed")
        # commits: any pending transaction with all objects on-node
        committed_now = [
            txn
            for txn in pending.values()
            if all(
                o not in flights and position[o] == txn.node
                for o in txn.objects
            )
        ]
        for txn in sorted(committed_now, key=lambda txn: prio[txn.tid]):
            if sanitizer is not None:
                sanitizer.check_commit(
                    t, txn, position, flights.keys(), release
                )
            if rec.enabled:
                rec.record(
                    obs_events.CommitEvent(
                        t, txn.tid, txn.node, tuple(sorted(txn.objects))
                    )
                )
                rec.count("resilient.commits")
            commits[txn.tid] = t
            del pending[txn.tid]
        if sanitizer is not None:
            sanitizer.check_step(t, position, flights.keys(), pending, net.n)
        # dispatch: idle objects chase their best requester
        for obj in sorted(position):
            if obj in flights or obj in unrecoverable:
                continue
            target = best_requester(obj)
            if target is None or position[obj] == target.node:
                continue
            if sanitizer is not None:
                sanitizer.check_dispatch(t, obj, target, pending, prio)
            if rec.enabled:
                rec.record(
                    obs_events.DispatchEvent(
                        t, obj, position[obj], target.node, target.tid
                    )
                )
                rec.count("resilient.dispatches")
            fl = _Flight(obj, target.node, target.tid)
            flights[obj] = fl
            _try_depart(fl, t)
        # advance to the next interesting time
        nxt = []
        if ai < len(arrivals):
            nxt.append(arrivals[ai].release)
        if ci < len(crash_seq):
            nxt.append(crash_seq[ci].time)
        for fl in flights.values():
            nxt.append(fl.hop_end if fl.hop_end is not None else fl.retry_at)
        t = max(t + 1, min(nxt)) if nxt else t + 1

    for tid, ct in commits.items():
        if ct < release[tid]:  # pragma: no cover - construction prevents it
            raise SchedulingError(
                f"transaction {tid} committed before release"
            )
    if rec.enabled:
        rec.gauge("resilient.makespan", max(commits.values(), default=0))
        for tid, ct in sorted(commits.items()):
            rec.observe("resilient.response", ct - release[tid])
    report = OnlineDegradationReport(
        released=workload.m,
        committed=len(commits),
        lost=tuple(lost),
        shed=tuple(shed),
        retries=retries,
        reroutes=reroutes,
        rehomed=rehomed,
        fault_count=len(plan),
        sanitizer_checks=sanitizer.checks if sanitizer is not None else 0,
        violations=len(sanitizer.violations) if sanitizer is not None else 0,
    )
    schedule = None
    if len(commits) == workload.m:
        schedule = Schedule(
            inst, commits,
            meta={"scheduler": "resilient-priority", "faults": len(plan)},
        )
    return OnlineResult(
        schedule=schedule, commits=dict(commits), release=release,
        report=report,
    )
