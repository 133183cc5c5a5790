"""Production-vs-oracle parity, field by field.

The array implementations of the hot paths are only allowed to be
faster, never different: for every topology and seed, the dependency
graph, the colouring, the positioning offset, the phase hand-off, the
schedule, and the executed trace must match the pure-Python oracles
(``build_reference``, ``greedy_color_reference``,
``positioning_offset_reference``, the itinerary walk below,
``execute_reference``) exactly, and every phased scheduler must commit
as it does with all of them and the validating ``Instance`` constructor
patched in.  Hypothesis drives the workloads; the fixed-topology
parametrization covers every builder at least once even under the CI
profile's reduced example count.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coloring import (
    greedy_color,
    greedy_color_reference,
    validate_coloring,
)
from repro.core.dependency import (
    ArrayDependencyGraph,
    DependencyGraph,
    build_reference,
)
import repro.core.greedy as greedy_mod
import repro.core.phasing as phasing_mod
import repro.core.sharded as sharded_mod
from repro.core.grid import GridScheduler
from repro.core.greedy import (
    GreedyScheduler,
    positioning_offset,
    positioning_offset_reference,
)
from repro.core.incremental import open_session
from repro.core.instance import Instance
from repro.core.phasing import last_user_positions
from repro.core.schedule import Schedule
from repro.core.sharded import ShardedClusterScheduler, ShardedScheduler
from repro.core.star import StarScheduler
from repro.core.transaction import Transaction
from repro.errors import InfeasibleScheduleError
from repro.network import (
    butterfly,
    clique,
    cluster,
    grid,
    hypercube,
    line,
    shard_cluster,
    star,
)
from repro.obs import MemoryRecorder
from repro.online import OnlineWorkload, TimedTransaction, run_epoch_batched
from repro.service import ServiceConfig
from repro.sim import execute
from repro.sim.engine import execute_reference
from repro.staticcheck import certify_schedule
from repro.workloads import partitioned_instance, random_k_subsets

TOPOLOGIES = {
    "clique": lambda: clique(8),
    "line": lambda: line(12),
    "grid": lambda: grid(5),
    "cluster": lambda: cluster(3, 4),
    "hypercube": lambda: hypercube(3),
    "butterfly": lambda: butterfly(2),
    "star": lambda: star(3, 4),
}


def _instance(topo: str, seed: int, w: int, k: int):
    net = TOPOLOGIES[topo]()
    rng = np.random.default_rng(seed)
    return random_k_subsets(net, w=w, k=min(k, w), rng=rng)


def _graph_edges(graph: DependencyGraph):
    return {
        (tid, other): weight
        for tid in graph.vertices()
        for other, weight in graph.neighbors(tid).items()
    }


def _random_homed(net, rng, w, k, unused=0):
    """Transactions on random nodes, shuffled tids, spread-out object ids,
    every object homed at a uniform node (not at a requester), plus
    ``unused`` homed objects no transaction requests."""
    m = int(rng.integers(1, net.n + 1))
    nodes = rng.choice(net.n, size=m, replace=False).tolist()
    tids = (rng.permutation(m) * 7 + 3).tolist()
    txns = [
        Transaction(tid, v, (rng.choice(w, size=min(k, w), replace=False)
                             * 3 + 1).tolist())
        for tid, v in zip(tids, nodes)
    ]
    homes = rng.integers(net.n, size=w + unused).tolist()
    return Instance(net, txns, {o * 3 + 1: h for o, h in enumerate(homes)})


def _reference_commits(inst):
    """The greedy schedule's commit times, assembled from the oracles."""
    colors = greedy_color_reference(build_reference(inst))
    offset = positioning_offset_reference(inst, colors)
    return {tid: c + offset for tid, c in colors.items()}


def _walk_hand_off(sub_schedule, positions):
    """The phase hand-off as an itinerary walk: the oracle of
    :func:`last_user_positions`."""
    for obj, visits in sub_schedule.itineraries():
        if len(visits) > 1:
            positions[obj] = visits[-1].node


def _validating_from_validated(cls, network, transactions, object_homes):
    return cls(network, transactions, object_homes)


def _outcome(fn, *args):
    """``fn(*args)``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (KeyError, InfeasibleScheduleError) as exc:
        return type(exc), str(exc)


def _trace_fields(trace):
    return (
        trace.makespan,
        trace.total_distance,
        trace.object_distance,
        trace.edge_traffic,
        trace.max_in_flight,
        trace.commits,
        trace.idle_object_time,
    )


topo_seeds = given(
    topo=st.sampled_from(sorted(TOPOLOGIES)),
    seed=st.integers(0, 2**32 - 1),
    w=st.integers(2, 24),
    k=st.integers(1, 4),
)


class TestDependencyParity:
    @settings(deadline=None)
    @topo_seeds
    def test_build_identical(self, topo, seed, w, k):
        inst = _instance(topo, seed, w, k)
        ref = build_reference(inst)
        vec = DependencyGraph.build(inst)
        assert isinstance(vec, ArrayDependencyGraph)
        assert ref.num_vertices == vec.num_vertices
        assert sorted(ref.vertices()) == sorted(vec.vertices())
        assert _graph_edges(ref) == _graph_edges(vec)
        assert [ref.degree(t) for t in ref.vertices()] == [
            vec.degree(t) for t in vec.vertices()
        ]

    @settings(deadline=None)
    @topo_seeds
    def test_restricted_build_identical(self, topo, seed, w, k):
        inst = _instance(topo, seed, w, k)
        rng = np.random.default_rng(seed)
        tids = [t.tid for t in inst.transactions]
        # a random subset, with a tid the instance does not have
        keep = rng.choice(tids, size=rng.integers(0, len(tids) + 1),
                          replace=False).tolist() + [max(tids) + 1]
        ref = build_reference(inst, keep)
        vec = DependencyGraph.build(inst, keep)
        assert sorted(ref.vertices()) == list(vec.vertices())
        assert _graph_edges(ref) == _graph_edges(vec)


class TestColoringParity:
    @settings(deadline=None)
    @topo_seeds
    def test_colors_identical(self, topo, seed, w, k):
        inst = _instance(topo, seed, w, k)
        ref_graph = build_reference(inst)
        vec_graph = DependencyGraph.build(inst)
        ref = greedy_color_reference(ref_graph)
        vec = greedy_color(vec_graph)
        assert ref == vec
        validate_coloring(vec_graph, vec)

    @pytest.mark.parametrize(
        "tids,order",
        [
            ([0, 2, 4, 6], [6, 4, 2, 0]),
            # tids absent from the graph (between, below and past its
            # vertices): both raise the same KeyError
            ([0, 2, 4, 6], [0, 2, 4, 6, 3]),
            (None, [-1]),
            ([0, 2, 4, 6], [7]),
        ],
    )
    def test_colors_identical_for_explicit_orders(self, tids, order):
        inst = random_k_subsets(
            grid(4), w=6, k=2, rng=np.random.default_rng(1)
        )
        ref = _outcome(
            greedy_color_reference, build_reference(inst, tids), order
        )
        vec = _outcome(greedy_color, DependencyGraph.build(inst, tids), order)
        assert ref == vec


class TestScheduleParity:
    @settings(deadline=None)
    @topo_seeds
    def test_schedules_identical(self, topo, seed, w, k):
        inst = _instance(topo, seed, w, k)
        ref = _reference_commits(inst)
        vec = GreedyScheduler().schedule(inst)
        assert ref == vec.commit_times
        assert max(ref.values()) == vec.makespan


class TestPositioningParity:
    @settings(deadline=None)
    @given(
        topo=st.sampled_from(sorted(TOPOLOGIES)),
        seed=st.integers(0, 2**32 - 1),
        w=st.integers(1, 24),
        k=st.integers(1, 4),
        unused=st.integers(0, 4),
    )
    def test_offset_and_hand_off_identical(self, topo, seed, w, k, unused):
        rng = np.random.default_rng(seed)
        inst = _random_homed(TOPOLOGIES[topo](), rng, w, k, unused)
        greedy = greedy_color(DependencyGraph.build(inst))
        # colours and commit times drawn from a few values, so the tid
        # (and, for the hand-off, node) tie-breaks decide
        tids = [t.tid for t in inst.transactions]
        drawn = dict(zip(tids, rng.integers(1, 4, size=len(tids)).tolist()))
        for colors in (greedy, drawn):
            assert positioning_offset(inst, colors) == (
                positioning_offset_reference(inst, colors)
            )
        sched = Schedule(inst, drawn)
        start = {o: -1 for o in inst.object_homes}
        ref, vec = dict(start), dict(start)
        _walk_hand_off(sched, ref)
        last_user_positions(sched, vec)
        assert list(ref.items()) == list(vec.items())


def _grid_case(side):
    def case(seed):
        rng = np.random.default_rng(seed)
        inst = _random_homed(grid(5), rng, w=8, k=2, unused=2)
        return GridScheduler(side=side).schedule(inst)
    return case


def _star_case(seed):
    rng = np.random.default_rng(seed)
    inst = _random_homed(star(3, 4), rng, w=6, k=2, unused=1)
    return StarScheduler().schedule(inst, np.random.default_rng(seed))


def _sharded_case(scheduler):
    def case(seed):
        rng = np.random.default_rng(seed)
        net = shard_cluster(3, 4)
        inst = partitioned_instance(
            net, net.topology.params["members"], objects_per_group=3, k=2,
            cross_fraction=0.3, rng=rng,
        )
        return scheduler().schedule(inst, np.random.default_rng(seed))
    return case


def _epoch_case(seed):
    rng = np.random.default_rng(seed)
    inst = _random_homed(grid(4), rng, w=6, k=2, unused=1)
    releases = np.sort(rng.integers(0, 12, size=inst.m)).tolist()
    workload = OnlineWorkload(
        inst.network,
        [TimedTransaction(r, t) for r, t in zip(releases, inst.transactions)],
        inst.object_homes,
    )
    return run_epoch_batched(workload, rng=np.random.default_rng(seed)).schedule


PHASED = {
    "grid-side1": _grid_case(1),
    "grid-side2": _grid_case(2),
    "grid-side3": _grid_case(3),
    "star": _star_case,
    "sharded": _sharded_case(ShardedScheduler),
    "sharded-cluster": _sharded_case(ShardedClusterScheduler),
    "epoch-batched": _epoch_case,
}


class TestPhasedSchedulerParity:
    """Every phased scheduler commits as it does on the oracle pieces."""

    @pytest.mark.parametrize("case", sorted(PHASED))
    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_commits_identical(self, case, seed):
        vec = PHASED[case](seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(greedy_mod, "positioning_offset",
                       positioning_offset_reference)
            mp.setattr(greedy_mod, "greedy_color", greedy_color_reference)
            mp.setattr(DependencyGraph, "build", classmethod(
                lambda cls, inst, tids=None: build_reference(inst, tids)))
            mp.setattr(phasing_mod, "last_user_positions", _walk_hand_off)
            mp.setattr(sharded_mod, "last_user_positions", _walk_hand_off)
            mp.setattr(Instance, "_from_validated",
                       classmethod(_validating_from_validated))
            ref = PHASED[case](seed)
        assert ref.commit_times == vec.commit_times
        assert ref.meta == vec.meta


def _replay(replay, sched):
    """Trace fields (or the raised error) plus the recorded stream."""
    sched._itineraries = None  # fresh routing pass for every run
    rec = MemoryRecorder()
    out = _outcome(lambda: _trace_fields(replay(sched, recorder=rec)))
    return out, rec.events, rec.registry.snapshot()


class TestExecuteParity:
    @settings(deadline=None)
    @topo_seeds
    def test_traces_identical(self, topo, seed, w, k):
        inst = _instance(topo, seed, w, k)
        sched = GreedyScheduler().schedule(inst)
        ref = execute_reference(sched)
        sched._itineraries = None  # fresh routing pass for the second run
        vec = execute(sched)
        assert _trace_fields(ref) == _trace_fields(vec)

    @pytest.mark.parametrize("topo", sorted(TOPOLOGIES))
    def test_traces_identical_every_topology(self, topo):
        inst = _instance(topo, seed=7, w=12, k=3)
        sched = GreedyScheduler().schedule(inst)
        assert _replay(execute_reference, sched) == _replay(execute, sched)

    @pytest.mark.parametrize("topo", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("squash", [2, 3, 5])
    def test_errors_identical_every_topology(self, topo, squash):
        inst = _instance(topo, seed=11, w=12, k=3)
        good = GreedyScheduler().schedule(inst)
        sched = Schedule(
            inst,
            {t: max(1, c // squash) for t, c in good.commit_times.items()},
        )
        assert _replay(execute_reference, sched) == _replay(execute, sched)


class TestKernelSwitch:
    """The 1.2.0 cut: one implementation per hot path, no selector."""

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "reference")
        inst = _instance("grid", seed=3, w=8, k=2)
        assert isinstance(DependencyGraph.build(inst), ArrayDependencyGraph)

    def test_unknown_kernel_rejected(self):
        inst = _instance("grid", seed=3, w=8, k=2)
        sched = GreedyScheduler().schedule(inst)
        for call in (
            lambda: DependencyGraph.build(inst, kernel="reference"),
            lambda: greedy_color(DependencyGraph.build(inst), kernel="auto"),
            lambda: execute(sched, kernel="reference"),
            lambda: GreedyScheduler(kernel="reference"),
            lambda: certify_schedule(sched, kernel="reference"),
            lambda: ServiceConfig(kernel="reference"),
            lambda: open_session(inst.network, kernel="reference"),
        ):
            with pytest.raises(TypeError, match="kernel"):
                call()


class TestArrayGraphLookups:
    def test_degree_of_absent_tid_raises(self):
        # KeyError like the dict-backed graph, not another vertex's degree
        inst = random_k_subsets(
            grid(4), w=6, k=2, rng=np.random.default_rng(1)
        )
        with pytest.raises(KeyError):
            DependencyGraph.build(inst).degree(-1)
        restricted = DependencyGraph.build(inst, tids=[0, 2, 4, 6])
        with pytest.raises(KeyError):
            restricted.degree(1)
        with pytest.raises(KeyError):
            restricted.degree(99)
