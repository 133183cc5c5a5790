"""Event-driven ``run_resilient`` vs the step-driven oracle, field by field.

The production engine lays a flight out one fault-free segment at a time,
keeps per-object waiter sets, and re-examines only what changed; the
oracle (``resilient_oracle.run_resilient_stepwise``) advances every
flight one hop per visited step and rescans everything.  They must agree
on every observable: commits, releases, the schedule, the degradation
report (all fields but the sanitizer's check count), the recorded event
stream and metrics, sanitizer violations, and the type and message of any
error -- on every topology, under crashes, permanent failures, high-water
shedding, random and tied priorities, and tight retry policies.  The
engine's ``lost_at`` must match the times of the lost events it records.
Flights the engine lays out in one step from a distance row, and those
that fall back to its hop walk, are both covered; so is a run without a
sanitizer, which must decide exactly what an audited run decides.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from online_oracle import run_online
from resilient_oracle import run_resilient_stepwise

from repro.core import Transaction
from repro.errors import FaultError, SchedulingError
from repro.faults import (
    DelaySpike,
    FaultPlan,
    LinkFailure,
    NodeCrash,
    RetryPolicy,
    random_fault_plan,
)
from repro.network import clique, cluster, grid, hypercube, line, star
from repro.obs import MemoryRecorder
from repro.obs.events import DispatchEvent, LeaseRecoveryEvent, LostEvent
from repro.online import (
    OnlineWorkload,
    TimedTransaction,
    poisson_workload,
    random_priority,
    run_resilient,
    timestamp_priority,
)
from repro.sim import InvariantSanitizer
from repro.workloads import root_rng

TOPOLOGIES = {
    "clique": lambda: clique(8),
    "line": lambda: line(10),
    "grid": lambda: grid(4),
    "cluster": lambda: cluster(3, 4, 5),
    "hypercube": lambda: hypercube(3),
    "star": lambda: star(3, 3),
}
ADMISSION = {"none": None, "shed": 3}  # the high-water mark
POLICIES = {
    "default": RetryPolicy(),
    "tight": RetryPolicy(max_retries=3, max_wait=4),
    "zero-wait": RetryPolicy(max_retries=6, max_wait=0),
}


def flat_priority(workload, rng=None):
    """Every transaction ties: admission order alone breaks the ties."""
    return {a.txn.tid: (0,) for a in workload.arrivals}


def _outcome(runner, wl, plan, prio, seed, high_water, policy,
             sanitize=True):
    """Everything one run exposes, or the error it raised."""
    rec = MemoryRecorder()
    san = InvariantSanitizer(raise_on_violation=False) if sanitize else None
    rng = np.random.default_rng(seed) if prio is random_priority else None
    try:
        res = runner(
            wl, plan, priority=prio, rng=rng, policy=policy,
            high_water=high_water, sanitizer=san, recorder=rec,
        )
    except (FaultError, SchedulingError) as exc:
        out = (type(exc).__name__, str(exc))
    else:
        if runner is run_resilient:
            assert res.lost_at == {
                e.tid: e.time for e in rec.events if isinstance(e, LostEvent)
            }
        out = (
            res.commits,
            res.release,
            None if res.schedule is None else res.schedule.commit_times,
            dataclasses.replace(res.report, sanitizer_checks=0),
        )
    violations = san.violations if san is not None else []
    return out, rec.events, rec.registry.snapshot(), violations


def _assert_parity(wl, plan, prio=timestamp_priority, seed=0,
                   high_water=None, policy=RetryPolicy()):
    fast = _outcome(run_resilient, wl, plan, prio, seed, high_water, policy)
    slow = _outcome(
        run_resilient_stepwise, wl, plan, prio, seed, high_water, policy
    )
    assert fast == slow
    return fast


def _workload(topo, seed, count, rate):
    net = TOPOLOGIES[topo]()
    return poisson_workload(
        net, w=max(3, count // 2), k=2, rate=rate,
        count=min(count, net.n), rng=root_rng(seed),
    )


def _plan(wl, seed, intensity, crash_rate, permanent):
    return random_fault_plan(
        wl.instance.network, horizon=run_online(wl).makespan,
        rng=root_rng(seed), intensity=intensity, crash_rate=crash_rate,
        permanent_fraction=permanent, objects=wl.instance.objects,
    )


@given(
    topo=st.sampled_from(sorted(TOPOLOGIES)),
    seed=st.integers(min_value=0, max_value=2**20),
    count=st.integers(min_value=2, max_value=12),
    rate=st.sampled_from([0.5, 1.0, 3.0]),
    intensity=st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0]),
    crash_rate=st.sampled_from([0.0, 0.1, 0.3]),
    permanent=st.sampled_from([0.0, 0.3]),
    admission=st.sampled_from(sorted(ADMISSION)),
    prio=st.sampled_from(
        [timestamp_priority, random_priority, flat_priority]
    ),
    policy=st.sampled_from(sorted(POLICIES)),
)
@settings(max_examples=100, deadline=None)
def test_event_driven_matches_stepwise(topo, seed, count, rate, intensity,
                                       crash_rate, permanent, admission,
                                       prio, policy):
    wl = _workload(topo, seed, count, rate)
    plan = _plan(wl, seed + 1, intensity, crash_rate, permanent)
    _assert_parity(wl, plan, prio, seed, ADMISSION[admission],
                   POLICIES[policy])


@pytest.mark.parametrize("topo", sorted(TOPOLOGIES))
@pytest.mark.parametrize("seed", range(4))
def test_every_topology_under_crashes(topo, seed):
    wl = _workload(topo, seed, count=12, rate=1.0)
    plan = _plan(wl, 100 + seed, intensity=2.0, crash_rate=0.3, permanent=0.0)
    _assert_parity(wl, plan)


def test_crash_truncates_segments_mid_flight():
    # txn 0 (node 2) holds obj 1 parked at its home 2 and waits for obj 2
    # flying 5 -> 2; txn 1 (node 7) waits for obj 0 flying 0 -> 7.  Node 2
    # dies at t=3: obj 2's lease dies mid-segment on hop 4 -> 3, obj 1
    # becomes unrecoverable, so txn 1 is lost and obj 0 stops at the far
    # end of the hop it is on (node 2) instead of flying on to node 7.
    wl = OnlineWorkload(
        line(8),
        [
            TimedTransaction(0, Transaction(0, 2, {1, 2})),
            TimedTransaction(0, Transaction(1, 7, {0, 1})),
        ],
        {0: 0, 1: 2, 2: 5},
    )
    (out, events, _, _) = _assert_parity(wl, FaultPlan([NodeCrash(2, 3)]))
    commits, _, schedule, report = out
    assert commits == {} and schedule is None
    assert dict(report.lost) == {
        0: "node 2 crashed", 1: "objects [1] unrecoverable",
    }
    recoveries = [e for e in events if isinstance(e, LeaseRecoveryEvent)]
    assert [(e.obj, e.node, e.recovered) for e in recoveries] == [
        (1, 2, False), (2, 4, True),
    ]


@pytest.mark.parametrize("topo", sorted(TOPOLOGIES))
def test_empty_plan_visits_only_run_online_steps(topo):
    # one event per flight: the sanitizer audits exactly the steps
    # run_online visits, plus one hop check per hop flown
    wl = _workload(topo, seed=7, count=12, rate=1.0)
    online_san = InvariantSanitizer()
    run_online(wl, sanitizer=online_san)
    rec, san = MemoryRecorder(), InvariantSanitizer()
    run_resilient(wl, sanitizer=san, recorder=rec)
    net = wl.instance.network
    hops = sum(
        len(net.shortest_path(e.src, e.dst)) - 1
        for e in rec.events if isinstance(e, DispatchEvent)
    )
    assert hops > 0
    assert san.checks == online_san.checks + hops


@pytest.mark.parametrize("topo", sorted(TOPOLOGIES))
@pytest.mark.parametrize("seed", range(3))
def test_unsanitized_run_decides_the_same(topo, seed):
    # the one-step layout must not hinge on the sanitizer: a bare run
    # equals the audited one in every field but the sanitizer's counts
    wl = _workload(topo, seed, count=12, rate=1.0)
    plan = _plan(wl, 200 + seed, intensity=2.0, crash_rate=0.1, permanent=0.0)
    args = (run_resilient, wl, plan, timestamp_priority, seed, None,
            RetryPolicy())
    audited = _outcome(*args)
    assert audited[3] == []
    assert _outcome(*args, sanitize=False) == audited


def _one_flight(net, src, dst):
    """Object 0 homed at ``src``, wanted at ``dst`` by a release at 0."""
    return OnlineWorkload(
        net, [TimedTransaction(0, Transaction(0, dst, {0}))], {0: src}
    )


def test_fault_on_another_shortest_path_falls_back_to_the_walk():
    # 0 -> 5 on grid(4) has two shortest paths; the link that fails lies
    # on the one the flight does not take, so the flight walks its hops
    # and still arrives as if healthy
    net = grid(4)
    route = net.shortest_path(0, 5)
    off_route = ({(0, 1), (1, 5)} - {
        (min(a, b), max(a, b)) for a, b in zip(route, route[1:])
    }).pop()
    a, b = off_route
    assert net.dist(0, a) + 1 + net.dist(b, 5) == net.dist(0, 5)
    wl = _one_flight(net, 0, 5)
    out, *_ = _assert_parity(wl, FaultPlan([LinkFailure(a, b, 0, 20)]))
    assert out[0] == run_resilient(wl).commits == {0: 3}


def test_delay_spike_on_the_route_falls_back_to_the_walk():
    # the spike triples the route's second hop: 1 + 3 steps from t=1
    net = grid(4)
    route = net.shortest_path(0, 5)
    wl = _one_flight(net, 0, 5)
    plan = FaultPlan([DelaySpike(route[1], route[2], 0, 20, 3.0)])
    out, *_ = _assert_parity(wl, plan)
    assert out[0] == {0: 5}


@pytest.mark.parametrize("seed", range(4))
def test_faults_on_the_healthy_routes_on_grid(seed):
    # random streams on grid(4) with spikes and failures on a third of
    # the links the healthy home-to-node routes use: some departures
    # meet them, others run between ends no faulty link lies between
    wl = _workload("grid", seed, count=12, rate=3.0)
    net = wl.instance.network
    homes = wl.instance.object_homes
    hops = sorted({
        (min(a, b), max(a, b))
        for timed in wl.arrivals
        for o in timed.txn.objects
        for path in [net.shortest_path(homes[o], timed.txn.node)]
        for a, b in zip(path, path[1:])
    })
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(hops), size=max(1, len(hops) // 3), replace=False)
    events = []
    for n, i in enumerate(sorted(picks.tolist())):
        a, b = hops[i]
        if n % 2:
            events.append(LinkFailure(a, b, 2, 5))
        else:
            events.append(DelaySpike(a, b, 1, 30, 2.0))
    _assert_parity(wl, FaultPlan(events))
