"""Property-based tests, round two: schedulers, retiming, io, online.

Complements ``test_property.py`` with invariants over the newer modules:

* serialization round-trips are loss-free for arbitrary instances and
  schedules;
* compaction never increases makespan, never breaks feasibility, and
  preserves per-object visit orders;
* every topology scheduler is feasible over randomly parameterized
  topologies and workloads (not just the fixture sizes);
* the exact scheduler is sandwiched between the certified lower bound and
  every heuristic scheduler;
* the online runtime always terminates with release-respecting commits.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds import makespan_lower_bound, optimal_schedule
from repro.core import GreedyScheduler, compact_schedule
from repro.core.dispatch import resolve_scheduler, schedule
from repro.io import (
    instance_from_dict,
    instance_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.network import clique, cluster, grid, line, star
from repro.online import OnlineWorkload, TimedTransaction, run_resilient
from repro.sim import execute
from repro.workloads import random_k_subsets


@st.composite
def topology_instances(draw):
    """A random topology with a random uniform workload on it."""
    family = draw(st.sampled_from(["clique", "line", "grid", "cluster", "star"]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    if family == "clique":
        net = clique(draw(st.integers(min_value=2, max_value=20)))
    elif family == "line":
        net = line(draw(st.integers(min_value=2, max_value=30)))
    elif family == "grid":
        net = grid(
            draw(st.integers(min_value=2, max_value=5)),
            draw(st.integers(min_value=2, max_value=5)),
        )
    elif family == "cluster":
        beta = draw(st.integers(min_value=2, max_value=5))
        net = cluster(
            draw(st.integers(min_value=2, max_value=4)),
            beta,
            gamma=beta + draw(st.integers(min_value=0, max_value=4)),
        )
    else:
        net = star(
            draw(st.integers(min_value=2, max_value=4)),
            draw(st.integers(min_value=2, max_value=8)),
        )
    w = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=1, max_value=min(3, w)))
    return random_k_subsets(net, w, k, rng)


@given(topology_instances(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_topology_schedulers_always_feasible(inst, seed):
    rng = np.random.default_rng(seed)
    s = schedule(inst, rng=rng)
    s.validate()
    execute(s)
    assert s.makespan >= makespan_lower_bound(inst)


@given(topology_instances(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_compaction_invariants(inst, seed):
    rng = np.random.default_rng(seed)
    original = resolve_scheduler(
        topology=inst.network.topology.name
    ).schedule(inst, rng)
    compacted = compact_schedule(original)
    compacted.validate()
    assert compacted.makespan <= original.makespan
    for obj in inst.objects:
        orig = [
            t.tid
            for t in sorted(
                inst.users(obj),
                key=lambda t: (original.time_of(t.tid), t.tid),
            )
        ]
        new = [
            t.tid
            for t in sorted(
                inst.users(obj),
                key=lambda t: (compacted.time_of(t.tid), t.tid),
            )
        ]
        assert orig == new


@given(topology_instances())
@settings(max_examples=40, deadline=None)
def test_serialization_round_trip(inst):
    back = instance_from_dict(instance_to_dict(inst))
    assert back.object_homes == inst.object_homes
    assert [
        (t.tid, t.node, t.objects) for t in back.transactions
    ] == [(t.tid, t.node, t.objects) for t in inst.transactions]
    s = GreedyScheduler().schedule(inst)
    s_back = schedule_from_dict(schedule_to_dict(s))
    assert s_back.commit_times == s.commit_times
    s_back.validate()


@given(topology_instances())
@settings(max_examples=25, deadline=None)
def test_exact_sandwich_on_tiny_prefixes(inst):
    if inst.m > 7:
        tids = [t.tid for t in inst.transactions[:7]]
        inst = inst.restrict(tids)
    opt = optimal_schedule(inst)
    opt.validate()
    greedy = GreedyScheduler().schedule(inst)
    assert makespan_lower_bound(inst) <= opt.makespan <= greedy.makespan
    assert opt.makespan <= compact_schedule(greedy).makespan


@given(
    topology_instances(),
    st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=30),
)
@settings(max_examples=40, deadline=None)
def test_online_runtime_terminates_and_respects_releases(inst, gaps):
    txns = list(inst.transactions)
    releases = np.cumsum(gaps[: len(txns)]).tolist()
    while len(releases) < len(txns):
        releases.append(releases[-1])
    arrivals = [
        TimedTransaction(int(r), t) for r, t in zip(releases, txns)
    ]
    wl = OnlineWorkload(inst.network, arrivals, inst.object_homes)
    res = run_resilient(wl)
    res.schedule.validate()
    for tid, ct in res.schedule.commit_times.items():
        assert ct >= wl.release_of(tid)
