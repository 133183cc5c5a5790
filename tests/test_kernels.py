"""Production-vs-oracle parity, field by field.

The array implementations of the hot paths are only allowed to be
faster, never different: for every topology and seed, the dependency
graph, the colouring, the schedule, and the executed trace must match
the pure-Python oracles (``build_reference``, ``greedy_color_reference``,
``execute_reference``) exactly.  Hypothesis drives the workloads; the
fixed-topology parametrization covers every builder at least once even
under the CI profile's reduced example count.
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
from repro.core.greedy import GreedyScheduler, positioning_offset
from repro.core.incremental import open_session
from repro.core.schedule import Schedule
from repro.errors import InfeasibleScheduleError
from repro.network import (
    butterfly,
    clique,
    cluster,
    grid,
    hypercube,
    line,
    star,
)
from repro.obs import MemoryRecorder
from repro.service import ServiceConfig
from repro.sim import execute
from repro.sim.engine import execute_reference
from repro.staticcheck import certify_schedule
from repro.workloads import random_k_subsets

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


def _reference_commits(inst):
    """The greedy schedule's commit times, assembled from the oracles."""
    colors = greedy_color_reference(build_reference(inst))
    offset = positioning_offset(inst, colors)
    return {tid: c + offset for tid, c in colors.items()}


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
