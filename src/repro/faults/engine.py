"""Fault-aware schedule execution (replay against a :class:`FaultPlan`).

:func:`faulty_execute` replays a feasible schedule hop-by-hop while the
fault plan disrupts it, absorbing each disruption instead of aborting:

* **link failures** -- legs are rerouted around down links with the shared
  detour machinery (:func:`repro.faults.routing.route_avoiding`); when no
  route exists the hop waits for a repair with bounded exponential backoff
  (the engine probes, it does not peek at repair times);
* **object stalls** -- frozen objects retry their departure with the same
  backoff;
* **delay spikes** -- affected hops are stretched and commits whose objects
  arrive late are *deferred* to the earliest feasible step, never aborted;
* **node crashes** -- transactions stranded on dead nodes are lost, object
  replicas parked there are restored at their durable home, and the
  surviving suffix is rescheduled on the degraded network
  (:mod:`repro.faults.recovery`) and spliced into the timeline.

The healthy path adds zero distortion: on an empty plan the replay routes
the same shortest-path hops at the same times as :func:`repro.sim.execute`
and reproduces its trace exactly (same makespan, same commit events, same
traffic statistics) -- asserted by the test suite.  Every disruption the
engine absorbs is counted and attributed to the fault event that caused
it, feeding the :class:`~repro.faults.report.DegradationReport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.schedule import Schedule
from ..errors import FaultError
from ..obs import events as obs_events
from ..obs.recorder import Recorder, active
from ..sim.trace import CommitEvent
from .backoff import RetryPolicy
from .plan import FaultPlan
from .recovery import reschedule_survivors
from .routing import route_avoiding

__all__ = ["RetryPolicy", "FaultyTrace", "faulty_execute"]

Edge = Tuple[int, int]


def _edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass
class FaultyTrace:
    """What actually happened when a schedule was replayed under faults.

    The first block of attributes mirrors :class:`repro.sim.trace.Trace`
    (and equals it exactly on an empty plan); the second block counts the
    disruptions absorbed; ``attribution`` maps fault-event index (within
    the plan) to the number of disruptions that event caused.
    """

    makespan: int
    commits: Tuple[CommitEvent, ...]
    total_distance: int
    object_distance: Dict[int, int] = field(default_factory=dict)
    edge_traffic: Dict[Edge, int] = field(default_factory=dict)
    max_in_flight: int = 0
    idle_object_time: int = 0

    realized_commits: Dict[int, int] = field(default_factory=dict)
    retries: int = 0
    reroutes: int = 0
    recoveries: int = 0
    deferred_commits: int = 0
    lost: Tuple[Tuple[int, str], ...] = ()
    attribution: Dict[int, int] = field(default_factory=dict)

    @property
    def committed(self) -> int:
        """Number of transactions that actually committed."""
        return len(self.commits)

    def as_dict(self) -> dict[str, object]:
        """Plain-data summary for tables."""
        return {
            "makespan": self.makespan,
            "committed": self.committed,
            "lost": len(self.lost),
            "retries": self.retries,
            "reroutes": self.reroutes,
            "recoveries": self.recoveries,
            "deferred_commits": self.deferred_commits,
        }


class _LegResult:
    """Buffered outcome of routing one object for one transaction."""

    __slots__ = ("arrival", "depart", "hops", "retries", "reroutes", "attribution")

    def __init__(self, arrival: int, depart: int, hops: List[Tuple[Edge, int, int]],
                 retries: int, reroutes: int, attribution: Dict[int, int]) -> None:
        self.arrival = arrival
        self.depart = depart
        self.hops = hops
        self.retries = retries
        self.reroutes = reroutes
        self.attribution = attribution


def _route_object(
    net, plan: FaultPlan, policy: RetryPolicy,
    obj: int, src: int, dst: int, depart: int,
) -> _LegResult:
    """Drive ``obj`` from ``src`` to ``dst`` through the faulty network.

    Buffers hop records and disruption counters; the caller merges them
    into the run only once the consuming transaction actually commits.
    """
    attribution: Dict[int, int] = {}

    def _blame(event) -> None:
        idx = plan.index_of(event)
        attribution[idx] = attribution.get(idx, 0) + 1

    if src == dst:
        return _LegResult(depart, depart, [], 0, 0, attribution)

    def _blame_base_blocker(pos: int, t: int) -> None:
        base = net.shortest_path(pos, dst)
        for a, b in zip(base, base[1:]):
            ev = plan.link_down(a, b, t)
            if ev is not None:
                _blame(ev)
                return

    pos, t = src, depart
    hops: List[Tuple[Edge, int, int]] = []
    retries = reroutes = 0
    depart_actual: Optional[int] = None
    # remaining planned route (path[0] == pos); computed once per leg on
    # the healthy path -- identical hops to sim.routing.plan_leg -- and
    # re-planned only when a stall clears or the next link is down
    path: Optional[List[int]] = None
    attempt = 0
    while pos != dst:
        stall = plan.stall(obj, t)
        if stall is not None:
            attempt += 1
            if attempt > policy.max_retries:
                raise FaultError(
                    f"object {obj} stalled at node {pos} past the retry "
                    f"budget ({policy.max_retries} probes): {stall.describe()}"
                )
            retries += 1
            _blame(stall)
            t += policy.wait(attempt)
            continue
        if path is None:
            down = plan.down_edges(t)
            path, healthy = route_avoiding(net, pos, dst, down)
            if path is None:
                attempt += 1
                if attempt > policy.max_retries:
                    raise FaultError(
                        f"object {obj} stuck at node {pos}: no route to "
                        f"node {dst} after {policy.max_retries} probes "
                        f"(links down: {sorted(down)})"
                    )
                retries += 1
                _blame_base_blocker(pos, t)
                t += policy.wait(attempt)
                continue
            if not healthy:
                reroutes += 1
                _blame_base_blocker(pos, t)
        nxt = path[1]
        if plan.link_down(pos, nxt, t) is not None:
            path = None  # next iteration re-plans around the failure
            continue
        attempt = 0
        w = net.edge_weight(pos, nxt)
        factor, spike = plan.delay_factor(pos, nxt, t)
        duration = int(math.ceil(w * factor))
        if spike is not None:
            _blame(spike)
        if depart_actual is None:
            depart_actual = t
        hops.append((_edge(pos, nxt), t, t + duration))
        t += duration
        pos = nxt
        path = path[1:]
    return _LegResult(t, depart_actual if depart_actual is not None else depart,
                      hops, retries, reroutes, attribution)


def faulty_execute(
    schedule: Schedule,
    plan: FaultPlan,
    policy: RetryPolicy | None = None,
    recorder: Recorder | None = None,
) -> FaultyTrace:
    """Replay ``schedule`` against ``plan``, absorbing every fault it can.

    Returns the realized :class:`FaultyTrace`.  Raises :class:`FaultError`
    when a disruption exceeds the retry budget and
    :class:`~repro.errors.RecoveryError` when a node crash leaves no
    reschedulable surviving suffix (degraded network disconnected).
    ``recorder`` is an optional :class:`~repro.obs.Recorder` sink; the
    replay narrates hops, commits, recoveries, and losses through it
    without altering any realized outcome.
    """
    rec = active(recorder)
    policy = policy or RetryPolicy()
    inst = schedule.instance
    net = inst.network
    plan.validate_against(net)

    position: Dict[int, int] = dict(inst.object_homes)
    free_at: Dict[int, int] = {o: 0 for o in inst.objects}
    planned: Dict[int, int] = dict(schedule.commit_times)
    realized: Dict[int, int] = {}
    unrecoverable: set[int] = set()
    recovered_nodes: set[int] = set()

    commits: List[CommitEvent] = []
    lost: List[Tuple[int, str]] = []
    edge_traffic: Dict[Edge, int] = {}
    object_distance: Dict[int, int] = {}
    flight_events: List[Tuple[int, int]] = []
    idle = 0
    retries = reroutes = recoveries = deferred = 0
    attribution: Dict[int, int] = {}

    def _merge_attr(extra: Dict[int, int]) -> None:
        for idx, c in extra.items():
            attribution[idx] = attribution.get(idx, 0) + c

    # identical tie-breaking to sim.execute: stable sort on scheduled time
    order: List = sorted(inst.transactions, key=lambda t: planned[t.tid])
    crash_seq = plan.crash_events

    def _recover(i: int, crash_node: int) -> None:
        """Fire ``crash_node``'s crash: lose the stranded, splice the rest.

        Marks every node dead by the recovery point as handled, restores
        replicas parked on dead nodes from their durable homes, and -- if
        the crash actually disturbed the pending suffix (lost transactions
        or moved objects) -- reschedules the survivors on the degraded
        network and splices the new commit times into the timeline.
        """
        nonlocal recoveries
        base = max(
            plan.crash_time(crash_node) or 0,
            max(realized.values(), default=0),
            1,
        )
        dead = {
            n for n in net.nodes()
            if plan.crash_time(n) is not None and plan.crash_time(n) <= base
        }
        for n in sorted(dead - recovered_nodes):
            recovered_nodes.add(n)
            ev = plan.crash_event(n)
            if ev is not None:
                idx = plan.index_of(ev)
                attribution[idx] = attribution.get(idx, 0) + 1
                if rec.enabled:
                    rec.record(obs_events.CrashEvent(ev.time, n))
                    rec.count("faults.crashes")
        # restore replicas parked on dead nodes from their durable home
        disturbed = False
        for obj in sorted(position):
            if position[obj] in dead:
                disturbed = True
                home = inst.home(obj)
                prev = position[obj]
                if home in dead:
                    unrecoverable.add(obj)
                else:
                    position[obj] = home
                    free_at[obj] = max(free_at[obj], base)
                if rec.enabled:
                    rec.record(
                        obs_events.LeaseRecoveryEvent(
                            base, obj, prev, home, home not in dead
                        )
                    )
                    rec.count("faults.lease_recoveries")
        pending = order[i:]
        survivors = []
        for t in pending:
            if t.node in dead:
                reason = f"node {t.node} crashed"
                lost.append((t.tid, reason))
                disturbed = True
                if rec.enabled:
                    rec.record(obs_events.LostEvent(base, t.tid, reason))
                    rec.count("faults.lost")
            elif t.objects & unrecoverable:
                objs = sorted(t.objects & unrecoverable)
                reason = f"objects {objs} unrecoverable"
                lost.append((t.tid, reason))
                disturbed = True
                if rec.enabled:
                    rec.record(obs_events.LostEvent(base, t.tid, reason))
                    rec.count("faults.lost")
            else:
                survivors.append(t)
        if survivors and disturbed:
            recoveries += 1
            if rec.enabled:
                rec.count("faults.recoveries")
            splice = reschedule_survivors(
                inst, survivors, dict(position),
                plan.permanent_down_edges(base), base,
            )
            planned.update(splice)
            survivors.sort(key=lambda t: (planned[t.tid], t.tid))
        order[i:] = survivors

    i = 0
    while i < len(order):
        txn = order[i]
        # fire crashes the timeline has reached, in time order, whether or
        # not the dead node hosts a transaction -- parked replicas are
        # lost either way
        due = next(
            (ev for ev in crash_seq
             if ev.node not in recovered_nodes
             and ev.time < planned[txn.tid]),
            None,
        )
        if due is not None:
            _recover(i, due.node)
            continue
        crash = plan.crash_time(txn.node)
        legs: List[Tuple[int, _LegResult]] = []
        ready = 1
        for obj in sorted(txn.objects):
            leg = _route_object(
                net, plan, policy, obj, position[obj], txn.node, free_at[obj]
            )
            legs.append((obj, leg))
            ready = max(ready, leg.arrival)
        commit = max(planned[txn.tid], ready)
        if crash is not None and commit > crash:
            # the node died while its objects were still underway; the
            # dispatched moves never take effect (recovery restores the
            # objects from their last committed positions)
            _recover(i, txn.node)
            continue
        if commit > planned[txn.tid]:
            deferred += 1
            if rec.enabled:
                rec.count("faults.deferred_commits")
        realized[txn.tid] = commit
        for obj, leg in legs:
            if leg.hops:
                for edge, enter, exit_ in leg.hops:
                    edge_traffic[edge] = edge_traffic.get(edge, 0) + 1
                    object_distance[obj] = (
                        object_distance.get(obj, 0) + exit_ - enter
                    )
                    if rec.enabled:
                        rec.record(
                            obs_events.HopEvent(enter, obj, edge[0], edge[1])
                        )
                flight_events.append((leg.depart, 1))
                flight_events.append((leg.arrival, -1))
                idle += commit - leg.arrival
            retries += leg.retries
            reroutes += leg.reroutes
            _merge_attr(leg.attribution)
            position[obj] = txn.node
            free_at[obj] = commit
        if rec.enabled:
            rec.record(
                obs_events.CommitEvent(
                    commit, txn.tid, txn.node, tuple(sorted(txn.objects))
                )
            )
            rec.count("faults.commits")
        commits.append(
            CommitEvent(commit, txn.tid, txn.node, tuple(sorted(txn.objects)))
        )
        i += 1

    flight_events.sort(key=lambda e: (e[0], e[1]))
    in_flight = max_in_flight = 0
    for _, delta in flight_events:
        in_flight += delta
        max_in_flight = max(max_in_flight, in_flight)

    if rec.enabled:
        rec.count("faults.retries", retries)
        rec.count("faults.reroutes", reroutes)
        rec.gauge("faults.makespan", max(realized.values(), default=0))
        rec.gauge("faults.max_in_flight", max_in_flight)

    return FaultyTrace(
        makespan=max(realized.values(), default=0),
        commits=tuple(commits),
        total_distance=sum(object_distance.values()),
        object_distance=object_distance,
        edge_traffic=edge_traffic,
        max_in_flight=max_in_flight,
        idle_object_time=idle,
        realized_commits=realized,
        retries=retries,
        reroutes=reroutes,
        recoveries=recoveries,
        deferred_commits=deferred,
        lost=tuple(lost),
        attribution=attribution,
    )
