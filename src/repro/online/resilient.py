"""The online runtime: Greedy contention management under live faults.

:func:`run_resilient` implements the classic *Greedy contention manager*
discipline (Guerraoui, Herlihy & Pochon [13], adapted to the data-flow
model): every transaction carries a fixed priority; each idle object
always travels toward the highest-priority pending transaction that
requests it; a transaction commits the moment all its objects sit at its
node (and it has been released).  Because priorities form a total order
and arrivals never preempt an older transaction (timestamp priority =
release order), the globally highest-priority pending transaction always
has every object converging on it, so the runtime is livelock-free.

The runtime is hardened for a system that misbehaves *while decisions
are still being made*.  It consumes a
:class:`~repro.faults.plan.FaultPlan` live -- not replayed against a
precomputed schedule as :func:`repro.faults.faulty_execute` does -- and
absorbs each disruption without giving up determinism:

* **object moves are hop-by-hop**: a leg is a concrete path through the
  network, so a link failing mid-flight blocks exactly the hop that would
  traverse it.  Blocked hops (down link, stalled object, transient
  partition) retry with the shared bounded deterministic exponential
  backoff (:class:`repro.faults.backoff.RetryPolicy`) and reroute around
  failures with :func:`repro.faults.routing.route_avoiding`;
* **leases die with their node**: an object parked on -- or in flight
  toward -- a node that crashes is restored from its durable home and
  re-auctioned to the highest-priority pending waiter by the normal
  dispatch rule; transactions hosted on the dead node (and any needing an
  unrecoverable object) are reported ``lost``, never silently dropped;
* **admission control sheds load before it melts down**: a release that
  arrives while ``high_water`` transactions are pending is shed (a typed
  refusal, counted in the report);
* every step can be audited by an
  :class:`~repro.sim.sanitizer.InvariantSanitizer` hook.

The engine is event-driven.  The plan is known up front, so when an
object departs, the hops it will enter without meeting a fault (no stall
of the object, no failure of the next link at the step it gets there)
are laid out at once: a flight costs one event per fault-free segment,
not one per hop.  A flight that cannot meet a fault at all -- on a
shortest path, its object never stalled, and no link the plan touches on
any shortest path between its ends -- is laid out without walking its
hops: it reaches each node ``x`` at its departure plus ``dist(src, x)``,
one read of the source's cached distance row (the data-flow model's
unit-speed move along a shortest path).  Other flights walk their hops.
Each object keeps the set of pending transactions
waiting for it, and only transactions and objects whose state changed at
a step are re-examined for commit and dispatch.  The decisions and their
times are those of the plain step-by-step loop (kept as the reference
the tests compare against); only steps at which nothing happens are
skipped.  On the empty plan (the default) every flight is a single
segment, and the commit times form a feasible schedule in the batch
sense that also respects release times.  All costs are counted in an
:class:`~repro.online.report.OnlineDegradationReport`.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.schedule import Schedule
from ..errors import FaultError, SchedulingError
from ..faults.backoff import RetryPolicy
from ..faults.plan import FaultPlan
from ..faults.routing import route_avoiding
from ..obs import events as obs_events
from ..obs.recorder import Recorder, active
from ..sim.sanitizer import InvariantSanitizer
from .arrivals import OnlineWorkload, TimedTransaction
from .report import OnlineDegradationReport

__all__ = [
    "OnlineResult",
    "random_priority",
    "run_resilient",
    "timestamp_priority",
]

@dataclass
class OnlineResult:
    """Outcome of an online run.

    :func:`run_resilient` and :func:`~repro.online.run_epoch_batched`
    both return one.  ``commits`` maps every *committed* transaction to
    its commit step; ``schedule`` is the equivalent batch
    :class:`Schedule` when every released transaction committed
    (``None`` when crashes or shedding lost some -- a partial commit map
    is not a schedule).  The schedule is batch-feasible whenever the
    plan contains no node crashes (crash recovery restores objects at
    their durable home, a move the batch validator cannot see).
    ``report`` carries the degradation accounting, and ``lost_at`` maps
    every *lost* transaction to the step it was lost at.
    """

    schedule: Optional[Schedule]
    commits: Dict[int, int]
    release: Dict[int, int]
    report: OnlineDegradationReport
    lost_at: Dict[int, int] = field(default_factory=dict)

    @property
    def makespan(self) -> int:
        """Time of the last commit (0 if nothing committed)."""
        return max(self.commits.values(), default=0)

    @property
    def response_times(self) -> Dict[int, int]:
        """Commit minus release, per committed transaction."""
        return {
            tid: ct - self.release[tid] for tid, ct in self.commits.items()
        }

    @property
    def mean_response(self) -> float:
        """Mean response time over committed transactions."""
        rts = self.response_times
        return sum(rts.values()) / len(rts) if rts else 0.0

    @property
    def max_response(self) -> int:
        """Worst response time over committed transactions."""
        return max(self.response_times.values(), default=0)


def timestamp_priority(workload: OnlineWorkload, rng=None) -> Dict[int, tuple]:
    """Older transactions win (the Greedy CM's timestamp discipline)."""
    return {
        a.txn.tid: (a.release, a.txn.tid) for a in workload.arrivals
    }


def random_priority(
    workload: OnlineWorkload, rng: np.random.Generator
) -> Dict[int, tuple]:
    """A uniformly random fixed total order (randomized CM)."""
    tids = [a.txn.tid for a in workload.arrivals]
    perm = rng.permutation(len(tids))
    return {tid: (int(p),) for tid, p in zip(tids, perm)}


class _Flight:
    """One object's live leg: a lease, a path, and the segment it is on.

    While flying, ``times[i]`` is the step the object reaches
    ``path[i]`` (``times[0]`` is the departure), and the flight's event
    fires at ``times[-1]``, the segment's far end.  While blocked,
    ``times`` is None and the event fires at ``retry_at``.  ``seq``
    names the flight's one live event; older heap entries are stale.
    ``shortest`` holds while ``path`` is the healthy route the router
    returned, or what is left of it: a shortest path to ``dest``.
    """

    __slots__ = ("obj", "dest", "target_tid", "path", "shortest", "times",
                 "retry_at", "attempt", "seq")

    def __init__(self, obj: int, dest: int, target_tid: int) -> None:
        self.obj = obj
        self.dest = dest
        self.target_tid = target_tid
        self.path: Optional[List[int]] = None  # path[0] == position[obj]
        self.shortest = False
        self.times: Optional[List[int]] = None  # set while flying
        self.retry_at: Optional[int] = None  # set while blocked
        self.attempt = 0
        self.seq = 0


def run_resilient(
    workload: OnlineWorkload,
    plan: FaultPlan | None = None,
    priority: Callable[..., Dict[int, tuple]] = timestamp_priority,
    rng: np.random.Generator | None = None,
    policy: RetryPolicy | None = None,
    high_water: int | None = None,
    sanitizer: InvariantSanitizer | None = None,
    recorder: Recorder | None = None,
) -> OnlineResult:
    """Run the priority contention manager against a live fault plan.

    ``plan`` defaults to the empty plan: the plain Greedy contention
    manager, with no retries or reroutes.  ``priority`` maps the workload
    (and ``rng``, when given) to a total order; lower tuples win.  Pass
    it by keyword -- the second positional argument is ``plan``.
    ``policy`` bounds the backoff on blocked hops; exhausting it raises
    :class:`FaultError` (an unabsorbable fault, e.g. a permanent
    partition).  ``high_water`` (at least 1) sheds every release that
    arrives while that many transactions are pending; ``None`` admits
    all.  ``sanitizer`` audits every hop, commit and dispatch, and
    every step at which an event fires.  Raises
    :class:`SchedulingError` past a step guard that a livelock-free run
    never reaches (the healthy bound plus the plan's fault horizon and
    retry budget).  ``recorder`` is an optional
    :class:`~repro.obs.Recorder` sink narrating retries, reroutes, lease
    recoveries, admission decisions, crashes, and commits; recording
    never changes the run's decisions.
    """
    if high_water is not None and high_water < 1:
        raise ValueError(f"high_water must be >= 1, got {high_water}")
    rec = active(recorder)
    plan = plan if plan is not None else FaultPlan()
    policy = policy or RetryPolicy()
    inst = workload.instance
    net = inst.network
    plan.validate_against(net)
    prio = priority(workload, rng) if rng is not None else priority(workload)
    rank_of = prio.__getitem__
    diameter = net.diameter()
    max_steps = workload.horizon + (inst.m + 1) * (diameter + 1) + 16
    if not plan.is_empty:
        max_steps += plan.latest_time + (
            policy.budget + diameter + 1
        ) * (inst.m + 1)

    faulty = plan.faulty_links
    stalled = plan.stalled_objects
    # every faulty link with its weight, for the one-step test in _fly
    faulty_hops = [(a, b, net.edge_weight(a, b)) for a, b in sorted(faulty)]
    row = net.distance_row

    position: Dict[int, int] = dict(inst.object_homes)
    flights: Dict[int, _Flight] = {}
    pending: Dict[int, object] = {}  # tid -> Transaction
    admitted: Dict[int, int] = {}  # tid -> admission rank (breaks prio ties)
    waiters: Dict[int, Dict[int, None]] = {}  # obj -> pending tids, in order
    commits: Dict[int, int] = {}
    lost: List[Tuple[int, str]] = []
    lost_at: Dict[int, int] = {}
    shed: List[Tuple[int, str]] = []
    unrecoverable: set[int] = set()
    dead: set[int] = set()
    # objects whose place, motion or waiters changed since the last
    # dispatch: only they, and only their waiters, can act this step
    dirty: set[int] = set()
    events: List[Tuple[int, int, int]] = []  # (time, obj, seq) heap

    arrivals = list(workload.arrivals)
    release = {a.txn.tid: a.release for a in arrivals}
    crash_seq = list(plan.crash_events)
    ai = ci = seq = 0
    retries = reroutes = rehomed = 0
    t = 1

    def _schedule(fl: _Flight, when: int) -> None:
        nonlocal seq
        seq += 1
        fl.seq = seq
        heapq.heappush(events, (when, fl.obj, seq))

    def _live(entry: Tuple[int, int, int]) -> Optional[_Flight]:
        fl = flights.get(entry[1])
        return fl if fl is not None and fl.seq == entry[2] else None

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
        fl.times = None
        fl.retry_at = now + policy.wait(fl.attempt)
        _schedule(fl, fl.retry_at)
        if rec.enabled:
            rec.record(
                obs_events.RetryEvent(
                    now, fl.obj, position[fl.obj], fl.attempt,
                    policy.wait(fl.attempt),
                )
            )
            rec.count("resilient.retries")

    def _clear(src: int, dst: int) -> bool:
        """No faulty link lies on any shortest path from ``src`` to ``dst``."""
        if not faulty_hops:
            return True
        ds, dt = row(src), row(dst)
        span = ds[dst]
        for a, b, w in faulty_hops:
            if ds[a] + w + dt[b] == span or ds[b] + w + dt[a] == span:
                return False
        return True

    def _fly(fl: _Flight, now: int) -> None:
        """Depart along ``fl.path`` at ``now``; one event per segment.

        A flight that cannot meet a fault is laid out in one step from
        the distance row of its first node: its path is a shortest path
        (``fl.shortest``), its object never stalls, and no faulty link
        lies on any shortest path between the path's ends, so it reaches
        ``path[i]`` at ``now + dist(path[0], path[i])``.  Any other
        flight walks its segment hop by hop (:func:`_walk`).  The event
        at the segment's end then decides the next move.
        """
        path = fl.path
        if fl.shortest and fl.obj not in stalled and _clear(path[0], fl.dest):
            dist = row(path[0])
            times = [now + dist[x] for x in path]
            if sanitizer is not None:
                for i in range(1, len(path)):
                    sanitizer.check_hop(times[i - 1], path[i - 1], path[i],
                                        plan)
        else:
            times = _walk(fl, now)
        fl.attempt = 0
        fl.retry_at = None
        fl.times = times
        _schedule(fl, times[-1])

    def _walk(fl: _Flight, now: int) -> List[int]:
        """The times of ``fl``'s segment, one hop at a time from ``now``.

        The segment runs hop after hop until the object reaches its
        destination or a hop it would enter next is blocked at the step
        it gets there (the object is stalled, or the link is down).
        """
        path, dest = fl.path, fl.dest
        stalls = fl.obj in stalled
        times = [now]
        u, v, i = path[0], path[1], 1
        hot = ((u, v) if u < v else (v, u)) in faulty
        while True:
            if sanitizer is not None:
                sanitizer.check_hop(now, u, v, plan)
            if hot:
                factor, _ = plan.delay_factor(u, v, now)
                now += int(math.ceil(net.edge_weight(u, v) * factor))
            else:
                now += net.edge_weight(u, v)
            times.append(now)
            if v == dest or (stalls and plan.stall(fl.obj, now) is not None):
                break
            u, v, i = v, path[i + 1], i + 1
            hot = ((u, v) if u < v else (v, u)) in faulty
            if hot and plan.link_down(u, v, now) is not None:
                break
        return times

    def _try_depart(fl: _Flight, now: int) -> None:
        """Enter the next hop at ``now``, or back off if blocked."""
        nonlocal reroutes
        obj = fl.obj
        pos = position[obj]
        if obj in stalled and plan.stall(obj, now) is not None:
            _backoff(fl, now)
            return
        path = fl.path
        stale = (
            path is None
            or len(path) < 2
            or path[0] != pos
            or (
                ((pos, path[1]) if pos < path[1] else (path[1], pos)) in faulty
                and plan.link_down(pos, path[1], now) is not None
            )
        )
        if stale:
            down = plan.down_edges(now) if faulty else frozenset()
            path, fl.shortest = route_avoiding(net, pos, fl.dest, down)
            if path is None:
                fl.path = None
                _backoff(fl, now)
                return
            if not fl.shortest:
                reroutes += 1
                if rec.enabled:
                    rec.record(
                        obs_events.RerouteEvent(now, obj, pos, fl.dest)
                    )
                    rec.count("resilient.reroutes")
            fl.path = path
        _fly(fl, now)

    def _arrive(fl: _Flight, now: int) -> None:
        """The segment ended at ``now``: stop, or carry on from here."""
        obj = fl.obj
        k = len(fl.times) - 1
        position[obj] = fl.path[k]
        fl.times = None
        if position[obj] == fl.dest or fl.target_tid not in pending:
            del flights[obj]
            dirty.add(obj)
            return
        fl.path = fl.path[k:]
        _try_depart(fl, now)
        if fl.retry_at is not None and fl.retry_at <= now:
            _try_depart(fl, now)  # a zero-wait backoff probes again at once

    def _rehome(obj: int) -> None:
        """Restore ``obj`` from its durable home after a lease died."""
        nonlocal rehomed
        fl = flights.pop(obj, None)
        prev = position[obj]
        if fl is not None and fl.times is not None:
            prev = fl.path[bisect_left(fl.times, t, 1) - 1]  # hop's near end
        home = inst.home(obj)
        position[obj] = home
        dirty.add(obj)
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

    def _retire(tid: int) -> None:
        """Take ``tid`` off the pending set and its objects' waiter sets."""
        txn = pending.pop(tid)
        for o in txn.objects:
            del waiters[o][tid]
        dirty.update(txn.objects)

    def _lose(tid: int, reason: str) -> None:
        lost.append((tid, reason))
        lost_at[tid] = t
        if rec.enabled:
            rec.record(obs_events.LostEvent(t, tid, reason))
            rec.count("resilient.lost")

    def _drop_pending(tid: int, reason: str) -> None:
        _lose(tid, reason)
        _retire(tid)

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
        # flights whose waiter just vanished stop: a blocked one where it
        # stands, a flying one at the far end of the hop it is on
        for obj in sorted(flights):
            fl = flights[obj]
            if fl.target_tid in pending:
                continue
            if fl.times is None:
                del flights[obj]
                dirty.add(obj)
            else:
                j = bisect_left(fl.times, t, 1)
                del fl.times[j + 1:]
                _schedule(fl, fl.times[j])

    def _commit_rank(txn) -> tuple:
        return (prio[txn.tid], admitted[txn.tid])

    def _admit(timed: TimedTransaction) -> None:
        txn = timed.txn
        if txn.node in dead:
            _lose(txn.tid, f"node {txn.node} crashed")
            return
        gone = txn.objects & unrecoverable
        if gone:
            _lose(txn.tid, f"objects {sorted(gone)} unrecoverable")
            return
        if rec.enabled:
            rec.record(
                obs_events.AdmissionEvent(t, txn.tid, "admit", len(pending))
            )
            rec.count("resilient.admitted")
        pending[txn.tid] = txn
        admitted[txn.tid] = len(admitted)
        for o in txn.objects:
            waiters.setdefault(o, {})[txn.tid] = None
        dirty.update(txn.objects)

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
        # segment ends and retry probes due by t, in object order
        due: List[_Flight] = []
        while events and events[0][0] <= t:
            fl = _live(heapq.heappop(events))
            if fl is not None:
                due.append(fl)
        for fl in sorted(due, key=lambda fl: fl.obj):
            if fl.times is not None:
                _arrive(fl, t)
            else:
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
        # commits: waiters of dirty objects with all objects on-node; a
        # waiter of an object that is flying or elsewhere cannot commit
        ready: Dict[int, object] = {}
        for o in dirty:
            if o in flights:
                continue
            at = position[o]
            for tid in waiters.get(o, ()):
                txn = pending[tid]
                if txn.node != at or tid in ready:
                    continue
                for other in txn.objects:
                    if other in flights or position[other] != at:
                        break
                else:
                    ready[tid] = txn
        committed_now = list(ready.values())
        if len(committed_now) > 1:
            committed_now.sort(key=_commit_rank)
        for txn in committed_now:
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
            _retire(txn.tid)
        if sanitizer is not None:
            sanitizer.check_step(t, position, flights.keys(), pending, net.n)
        # dispatch: dirty idle objects chase their best waiter
        for obj in sorted(dirty):
            ws = waiters.get(obj)
            if not ws or obj in flights or obj in unrecoverable:
                continue
            if len(ws) == 1:
                (tid,) = ws
            else:
                tid = min(ws, key=rank_of)
            target = pending[tid]
            if position[obj] == target.node:
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
        dirty.clear()
        # advance to the next interesting time
        while events and _live(events[0]) is None:
            heapq.heappop(events)
        nxt = []
        if ai < len(arrivals):
            nxt.append(arrivals[ai].release)
        if ci < len(crash_seq):
            nxt.append(crash_seq[ci].time)
        if events:
            nxt.append(events[0][0])
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
        report=report, lost_at=lost_at,
    )
