"""Property-based tests (hypothesis) for degraded-network routing.

Strategies mirror ``tests/test_property.py``: arbitrary connected weighted
networks (random spanning tree plus chords) with an arbitrary subset of
edges marked down.  The invariants under test seed the fault engine's
detour logic:

* every detour candidate within a leg's slack still meets the deadline;
* ``path_avoiding`` returns a valid path that touches no down edge, and
  returns None only when the down set really disconnects the endpoints;
* a faulty replay against a repairable single-link failure commits every
  transaction.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GreedyScheduler, Instance, Transaction
from repro.faults import FaultPlan, LinkFailure, faulty_execute, path_avoiding
from repro.network.graph import Network
from repro.sim.reroute import detour_candidates


@st.composite
def networks(draw, max_n=10):
    n = draw(st.integers(min_value=2, max_value=max_n))
    edges = []
    for i in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=i - 1))
        w = draw(st.integers(min_value=1, max_value=4))
        edges.append((parent, i, w))
    n_chords = draw(st.integers(min_value=0, max_value=n))
    for _ in range(n_chords):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u == v or any((a, b) in ((u, v), (v, u)) for a, b, _ in edges):
            continue
        w = draw(st.integers(min_value=1, max_value=4))
        edges.append((u, v, w))
    return Network(n, edges)


@st.composite
def networks_with_down_edges(draw, max_n=10):
    net = draw(networks(max_n=max_n))
    all_edges = [(u, v) for u, v, _ in net.edges()]
    down = draw(
        st.sets(st.sampled_from(all_edges), max_size=len(all_edges))
    )
    return net, frozenset(down)


@st.composite
def instances(draw, max_n=10, max_w=5):
    net = draw(networks(max_n=max_n))
    w = draw(st.integers(min_value=1, max_value=max_w))
    m = draw(st.integers(min_value=1, max_value=net.n))
    nodes = draw(
        st.permutations(list(range(net.n))).map(lambda p: sorted(p[:m]))
    )
    txns = []
    for i, node in enumerate(nodes):
        objs = draw(
            st.sets(
                st.integers(min_value=0, max_value=w - 1),
                min_size=1,
                max_size=w,
            )
        )
        txns.append(Transaction(i, node, objs))
    homes = {
        o: draw(st.integers(min_value=0, max_value=net.n - 1))
        for o in range(w)
    }
    return Instance(net, txns, homes)


def reachable(net, src, down):
    """BFS oracle: nodes reachable from ``src`` avoiding ``down`` edges."""
    seen = {src}
    stack = [src]
    while stack:
        u = stack.pop()
        for v in net.neighbors(u):
            e = (u, v) if u < v else (v, u)
            if e in down or v in seen:
                continue
            seen.add(v)
            stack.append(v)
    return seen


@given(networks_with_down_edges())
@settings(max_examples=75, deadline=None)
def test_path_avoiding_is_valid_and_complete(net_down):
    net, down = net_down
    rng = np.random.default_rng(0)
    for _ in range(5):
        src, dst = (int(x) for x in rng.integers(0, net.n, 2))
        path = path_avoiding(net, src, dst, down)
        if dst in reachable(net, src, down):
            assert path is not None
            assert path[0] == src and path[-1] == dst
            for a, b in zip(path, path[1:]):
                assert net.has_edge(a, b)
                assert ((min(a, b), max(a, b))) not in down
            # cheapest first: the first detour candidate clear of ``down``
            slack = 2 * int(net.distance_matrix.max())
            clear = [
                p for p in detour_candidates(net, src, dst, slack, 16)
                if not any((min(a, b), max(a, b)) in down
                           for a, b in zip(p, p[1:]))
            ]
            if src != dst and clear:
                assert path == clear[0]
        else:
            assert path is None


@given(instances())
@settings(max_examples=50, deadline=None)
def test_detour_candidates_stay_within_slack(inst):
    s = GreedyScheduler().schedule(inst)
    net = inst.network
    for obj, visits in s.itineraries():
        for a, b in zip(visits, visits[1:]):
            if a.node == b.node:
                continue
            slack = (b.time - a.time) - net.dist(a.node, b.node)
            for path in detour_candidates(net, a.node, b.node, slack):
                length = sum(
                    net.edge_weight(u, v) for u, v in zip(path, path[1:])
                )
                # any candidate keeps the leg feasible: depart at a.time,
                # arrive by the commit at b.time
                assert a.time + length <= b.time
                assert path[0] == a.node and path[-1] == b.node


@given(networks_with_down_edges())
@settings(max_examples=50, deadline=None)
def test_degraded_shortest_is_no_shorter_than_healthy(net_down):
    net, down = net_down
    rng = np.random.default_rng(1)
    for _ in range(3):
        src, dst = (int(x) for x in rng.integers(0, net.n, 2))
        path = path_avoiding(net, src, dst, down)
        if path is None:
            continue
        length = sum(net.edge_weight(a, b) for a, b in zip(path, path[1:]))
        assert length >= net.dist(src, dst)
        if not down:
            assert length == net.dist(src, dst)


@given(instances(), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=50, deadline=None)
def test_repairable_single_link_failure_commits_everything(inst, pick):
    s = GreedyScheduler().schedule(inst)
    edges = list(inst.network.edges())
    u, v, _ = edges[pick % len(edges)]
    plan = FaultPlan([LinkFailure(u, v, 1, s.makespan + 1)])
    trace = faulty_execute(s, plan)
    assert trace.committed == inst.m
    assert not trace.lost
    # realized commits still serialize each object's users
    for obj in inst.objects:
        users = sorted(inst.users(obj), key=lambda t: s.time_of(t.tid))
        realized = [trace.realized_commits[t.tid] for t in users]
        assert realized == sorted(realized)
