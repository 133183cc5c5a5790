"""Synchronous data-flow TM execution engine (§2.1's step semantics).

The engine *executes* a schedule rather than merely checking leg lengths:
every object is routed hop-by-hop along shortest paths, transactions commit
at their scheduled step only if all their objects are physically on-node,
and commit-then-forward happens within one step exactly as the model
allows.  This is an independent implementation of feasibility (path sums
instead of the cached distance matrix), so ``Schedule.validate`` and
:func:`execute` cross-check each other throughout the test suite.  The
returned :class:`~repro.sim.trace.Trace` additionally reports the
communication cost, per-edge traffic, peak in-flight objects, and object
idle time -- the quantities the paper's related-work and future-work
discussions care about.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from ..core.schedule import Schedule
from ..errors import InfeasibleScheduleError
from ..obs import events as obs_events
from ..obs.recorder import Recorder, active
from .routing import Leg, plan_leg
from .trace import CommitEvent, Trace

__all__ = ["execute", "execute_reference"]


def execute_reference(
    schedule: Schedule,
    record_commits: bool = True,
    recorder: Recorder | None = None,
) -> Trace:
    """Hop-by-hop form of :func:`execute`: the test oracle.

    Plans every leg with :func:`~repro.sim.routing.plan_leg` and checks
    each commit against per-visit presence intervals, one object at a
    time.  The parity tests require :func:`execute` to return a
    field-by-field identical trace, raise the identical error message,
    and record the identical event stream.
    """
    rec = active(recorder)
    inst = schedule.instance
    net = inst.network

    legs: List[Leg] = []
    # presence[(obj, tid)] = (arrival, departure, node): the interval during
    # which `obj` sits at the committing transaction's node for that visit.
    presence: Dict[tuple[int, int], tuple[float, float, int]] = {}

    with rec.phase("route"):
        for obj, visits in schedule.itineraries():
            # time the object becomes present at each visit
            arrivals: List[int] = [0]
            for a, b in zip(visits, visits[1:]):
                if a.node == b.node:
                    arrivals.append(arrivals[-1])
                    continue
                leg = plan_leg(net, obj, a.node, b.node, a.time, b.time)
                if leg.arrive > b.time:
                    raise InfeasibleScheduleError(
                        f"object {obj} departs node {a.node} at t={a.time} "
                        f"but reaches node {b.node} at t={leg.arrive} > "
                        f"commit t={b.time}"
                    )
                legs.append(leg)
                arrivals.append(leg.arrive)
            for i, v in enumerate(visits):
                if v.tid < 0:
                    continue
                # the object departs toward the next *distinct* node at that
                # visit's scheduled time; until then it stays put
                departure: float = math.inf
                for nxt in visits[i + 1 :]:
                    if nxt.node != v.node:
                        departure = v.time  # forwarded right after commit
                        break
                    # consecutive same-node visits share the object in place
                presence[(obj, v.tid)] = (arrivals[i], departure, v.node)

    commits: List[CommitEvent] = []
    with rec.phase("execute"):
        for t in sorted(
            inst.transactions, key=lambda t: schedule.time_of(t.tid)
        ):
            ct = schedule.time_of(t.tid)
            for obj in sorted(t.objects):
                entry = presence.get((obj, t.tid))
                if entry is None:  # pragma: no cover - itinerary covers users
                    raise InfeasibleScheduleError(
                        f"transaction {t.tid} commits at t={ct} but object "
                        f"{obj} has no visit for it"
                    )
                arrival, departure, node = entry
                if node != t.node:  # pragma: no cover - itinerary invariant
                    raise InfeasibleScheduleError(
                        f"object {obj} visit for transaction {t.tid} targets "
                        f"node {node}, not the transaction's node {t.node}"
                    )
                if arrival > ct:
                    raise InfeasibleScheduleError(
                        f"transaction {t.tid} commits at t={ct} but object "
                        f"{obj} only arrives at node {t.node} at t={arrival}"
                    )
                if departure < ct:
                    raise InfeasibleScheduleError(
                        f"object {obj} departs node {t.node} at "
                        f"t={departure}, before transaction {t.tid}'s "
                        f"commit at t={ct}"
                    )
            if record_commits:
                commits.append(
                    CommitEvent(ct, t.tid, t.node, tuple(sorted(t.objects)))
                )
            if rec.enabled:
                rec.record(
                    obs_events.CommitEvent(
                        ct, t.tid, t.node, tuple(sorted(t.objects))
                    )
                )
                rec.count("sim.commits")

        # statistics
        object_distance: Dict[int, int] = {}
        edge_traffic: Dict[tuple[int, int], int] = {}
        idle = 0
        events: List[tuple[int, int]] = []  # (time, +1/-1) in-flight sweep
        for leg in legs:
            object_distance[leg.obj] = (
                object_distance.get(leg.obj, 0) + leg.distance
            )
            for hop in leg.hops:
                key = (min(hop.src, hop.dst), max(hop.src, hop.dst))
                edge_traffic[key] = edge_traffic.get(key, 0) + 1
                if rec.enabled:
                    rec.record(
                        obs_events.HopEvent(
                            hop.enter, leg.obj, hop.src, hop.dst
                        )
                    )
            idle += leg.deadline - leg.arrive
            events.append((leg.depart, 1))
            events.append((leg.arrive, -1))
        events.sort(key=lambda e: (e[0], e[1]))
        in_flight = 0
        max_in_flight = 0
        for _, delta in events:
            in_flight += delta
            max_in_flight = max(max_in_flight, in_flight)

    if rec.enabled:
        rec.count("sim.hops", sum(len(leg.hops) for leg in legs))
        rec.count("sim.legs", len(legs))
        for leg in legs:
            rec.observe("sim.leg_distance", leg.distance)
        rec.gauge("sim.makespan", schedule.makespan)
        rec.gauge("sim.max_in_flight", max_in_flight)
        rec.gauge("sim.total_distance", sum(object_distance.values()))
        rec.gauge("sim.idle_object_time", idle)

    return Trace(
        makespan=schedule.makespan,
        total_distance=sum(object_distance.values()),
        object_distance=object_distance,
        edge_traffic=edge_traffic,
        max_in_flight=max_in_flight,
        commits=tuple(commits),
        idle_object_time=idle,
    )


def execute(
    schedule: Schedule,
    record_commits: bool = True,
    recorder: Recorder | None = None,
) -> Trace:
    """Run ``schedule`` through the synchronous engine.

    Raises :class:`InfeasibleScheduleError` if any object cannot make a
    scheduled trip in time or any transaction commits without its objects
    present.  Returns the execution trace.  ``recorder`` is an optional
    :class:`~repro.obs.Recorder` observability sink; recording is passive
    (the returned trace is identical with or without it).

    One Python pass flattens every itinerary into parallel leg arrays;
    arrivals are a single batched gather from the cached distance matrix
    (exact, since legs follow shortest paths), feasibility and commit
    checks are array comparisons (with a reference-order replay on the
    slow path so the first violation raises the identical message), and
    edge traffic walks all legs' predecessor chains simultaneously.  When
    a recorder is attached, hops are reconstructed per leg in reference
    order so the recorded event stream matches byte for byte.
    """
    rec = active(recorder)
    inst = schedule.instance
    net = inst.network

    # flat leg arrays (one entry per node-changing itinerary leg)
    leg_obj: List[int] = []
    leg_src: List[int] = []
    leg_dst: List[int] = []
    leg_depart: List[int] = []
    leg_deadline: List[int] = []
    # flat presence entries; arr_leg points at the leg whose arrival time
    # is the visit's arrival (-1: the object has not moved yet -> t=0)
    p_key: Dict[tuple[int, int], int] = {}
    p_tid: List[int] = []
    p_arr_leg: List[int] = []
    p_dep: List[float] = []

    with rec.phase("route"):
        for obj, visits in schedule.itineraries():
            cur_leg = -1
            arr_leg: List[int] = [-1]
            for a, b in zip(visits, visits[1:]):
                if a.node != b.node:
                    cur_leg = len(leg_obj)
                    leg_obj.append(obj)
                    leg_src.append(a.node)
                    leg_dst.append(b.node)
                    leg_depart.append(a.time)
                    leg_deadline.append(b.time)
                arr_leg.append(cur_leg)
            # departure is the visit's own time iff some later visit needs
            # the object at a different node: one reverse pass tracking
            # whether the suffix of visits is uniform in node
            nvis = len(visits)
            dep: List[float] = [math.inf] * nvis
            tail = -1  # uniform node of the suffix, or -1 for empty
            mixed = False
            for i in range(nvis - 1, -1, -1):
                v = visits[i]
                if tail >= 0 and (mixed or tail != v.node):
                    dep[i] = v.time  # forwarded right after commit
                if tail >= 0 and tail != v.node:
                    mixed = True
                tail = v.node
            for i, v in enumerate(visits):
                if v.tid < 0:
                    continue
                p_key[(obj, v.tid)] = len(p_tid)
                p_tid.append(v.tid)
                p_arr_leg.append(arr_leg[i])
                p_dep.append(dep[i])

        src = np.asarray(leg_src, dtype=np.int64)
        dst = np.asarray(leg_dst, dtype=np.int64)
        depart = np.asarray(leg_depart, dtype=np.int64)
        deadline = np.asarray(leg_deadline, dtype=np.int64)
        if len(src):
            d = net.pair_distances(src, dst)
        else:
            d = np.zeros(0, dtype=np.int64)
        arrive = depart + d
        late = np.flatnonzero(arrive > deadline)
        if len(late):
            i = int(late[0])  # legs are built in reference order
            raise InfeasibleScheduleError(
                f"object {leg_obj[i]} departs node {leg_src[i]} at "
                f"t={leg_depart[i]} but reaches node {leg_dst[i]} at "
                f"t={int(arrive[i])} > commit t={leg_deadline[i]}"
            )

    commits: List[CommitEvent] = []
    txns = sorted(inst.transactions, key=lambda t: schedule.time_of(t.tid))
    with rec.phase("execute"):
        if p_tid:
            arr_leg_a = np.asarray(p_arr_leg, dtype=np.int64)
            if len(arrive):
                p_arr = np.where(arr_leg_a >= 0, arrive[arr_leg_a], 0)
            else:
                p_arr = np.zeros(len(p_tid), dtype=np.int64)
            ent_ct = np.asarray(
                [schedule.commit_times[t] for t in p_tid], dtype=np.int64
            )
            dep_a = np.asarray(p_dep, dtype=np.float64)
            if bool(((p_arr > ent_ct) | (dep_a < ent_ct)).any()):
                _raise_commit_violation(schedule, txns, p_key, p_arr, p_dep)

        if record_commits or rec.enabled:
            for t in txns:
                ct = schedule.time_of(t.tid)
                objs = tuple(sorted(t.objects))
                if record_commits:
                    commits.append(CommitEvent(ct, t.tid, t.node, objs))
                if rec.enabled:
                    rec.record(
                        obs_events.CommitEvent(ct, t.tid, t.node, objs)
                    )
                    rec.count("sim.commits")

        # statistics
        object_distance: Dict[int, int] = {}
        d_list = d.tolist()
        for o, dd in zip(leg_obj, d_list):
            object_distance[o] = object_distance.get(o, 0) + dd
        idle = int((deadline - arrive).sum()) if len(src) else 0

        edge_traffic: Dict[tuple[int, int], int] = {}
        hops_total = 0
        if rec.enabled:
            # reconstruct hops per leg, forward, so HopEvents come out in
            # the reference order (tracing is opt-in; parity over speed)
            for i, o in enumerate(leg_obj):
                path = net.shortest_path(leg_src[i], leg_dst[i])
                t_at = leg_depart[i]
                for a, b in zip(path, path[1:]):
                    key = (a, b) if a < b else (b, a)
                    edge_traffic[key] = edge_traffic.get(key, 0) + 1
                    rec.record(obs_events.HopEvent(t_at, o, a, b))
                    t_at += net.edge_weight(a, b)
                hops_total += len(path) - 1
        elif len(src):
            # walk every leg's predecessor chain simultaneously: each
            # round moves all still-travelling legs one hop toward their
            # source, emitting the traversed edges
            pred = net._ensure_pred()
            cur = dst.copy()
            eu: List[np.ndarray] = []
            ev: List[np.ndarray] = []
            alive = np.flatnonzero(cur != src)
            while len(alive):
                prev = pred[src[alive], cur[alive]].astype(np.int64)
                eu.append(prev)
                ev.append(cur[alive])
                cur[alive] = prev
                alive = alive[prev != src[alive]]
            u = np.concatenate(eu)
            v = np.concatenate(ev)
            hops_total = len(u)
            keys = np.sort(np.minimum(u, v) * net.n + np.maximum(u, v))
            change = np.flatnonzero(
                np.concatenate(([True], keys[1:] != keys[:-1]))
            )
            counts = np.diff(np.concatenate((change, [len(keys)])))
            for k, c in zip(keys[change].tolist(), counts.tolist()):
                edge_traffic[(k // net.n, k % net.n)] = c

        max_in_flight = 0
        if len(src):
            times = np.concatenate((depart, arrive))
            delta = np.concatenate(
                (
                    np.ones(len(src), dtype=np.int64),
                    -np.ones(len(src), dtype=np.int64),
                )
            )
            run = np.cumsum(delta[np.lexsort((delta, times))])
            max_in_flight = max(int(run.max()), 0)

    if rec.enabled:
        rec.count("sim.hops", hops_total)
        rec.count("sim.legs", len(leg_obj))
        for dd in d_list:
            rec.observe("sim.leg_distance", dd)
        rec.gauge("sim.makespan", schedule.makespan)
        rec.gauge("sim.max_in_flight", max_in_flight)
        rec.gauge("sim.total_distance", sum(object_distance.values()))
        rec.gauge("sim.idle_object_time", idle)

    return Trace(
        makespan=schedule.makespan,
        total_distance=sum(object_distance.values()),
        object_distance=object_distance,
        edge_traffic=edge_traffic,
        max_in_flight=max_in_flight,
        commits=tuple(commits),
        idle_object_time=idle,
    )


def _raise_commit_violation(schedule, txns, p_key, p_arr, p_dep) -> None:
    """Replay commit checks in reference order to raise the exact error."""
    for t in txns:
        ct = schedule.time_of(t.tid)
        for obj in sorted(t.objects):
            i = p_key[(obj, t.tid)]
            arrival = int(p_arr[i])
            departure = p_dep[i]
            if arrival > ct:
                raise InfeasibleScheduleError(
                    f"transaction {t.tid} commits at t={ct} but object "
                    f"{obj} only arrives at node {t.node} at t={arrival}"
                )
            if departure < ct:
                raise InfeasibleScheduleError(
                    f"object {obj} departs node {t.node} at "
                    f"t={departure}, before transaction {t.tid}'s "
                    f"commit at t={ct}"
                )
    raise AssertionError(  # pragma: no cover - caller saw a violation
        "vectorized commit check flagged a violation the replay missed"
    )
