"""Unit tests for scheduler dispatch and the scheduler table."""

import numpy as np
import pytest

from repro.core.dispatch import SCHEDULER_INFO, resolve_scheduler, schedule
from repro.core.cluster import ClusterScheduler
from repro.core.greedy import CliqueScheduler, DiameterScheduler, GreedyScheduler
from repro.core.grid import GridScheduler
from repro.core.line import LineScheduler
from repro.core.star import StarScheduler
from repro.errors import SchedulingError
from repro.network import (
    butterfly,
    clique,
    cluster,
    ddim_grid,
    grid,
    hypercube,
    line,
    star,
)
from repro.network.graph import Network
from repro.workloads import random_k_subsets


CASES = [
    (clique(8), CliqueScheduler),
    (hypercube(3), DiameterScheduler),
    (butterfly(2), DiameterScheduler),
    (ddim_grid([2, 2, 2]), DiameterScheduler),
    (line(12), LineScheduler),
    (grid(4), GridScheduler),
    (cluster(3, 4), ClusterScheduler),
    (star(3, 5), StarScheduler),
]


class TestDispatch:
    @pytest.mark.parametrize(
        "net,cls", CASES, ids=[n.topology.name for n, _ in CASES]
    )
    def test_resolved_scheduler_matches_topology(self, net, cls):
        rng = np.random.default_rng(0)
        inst = random_k_subsets(net, w=max(2, net.n // 2), k=2, rng=rng)
        assert isinstance(
            resolve_scheduler(topology=inst.network.topology.name), cls
        )

    def test_generic_falls_back_to_greedy(self):
        net = Network(3, [(0, 1, 1), (1, 2, 1)])
        rng = np.random.default_rng(1)
        inst = random_k_subsets(net, w=2, k=1, rng=rng)
        assert isinstance(
            resolve_scheduler(topology=inst.network.topology.name),
            GreedyScheduler,
        )

    @pytest.mark.parametrize(
        "net,cls", CASES, ids=[n.topology.name for n, _ in CASES]
    )
    def test_schedule_end_to_end(self, net, cls):
        rng = np.random.default_rng(2)
        inst = random_k_subsets(net, w=max(2, net.n // 2), k=2, rng=rng)
        s = schedule(inst, rng=rng)
        s.validate()


class TestRegistry:
    def test_expected_names_registered(self):
        assert sorted(SCHEDULER_INFO) == [
            "clique", "cluster", "diameter", "greedy", "grid", "line",
            "random-order", "sequential", "sharded", "sharded-cluster",
            "star", "tsp-order",
        ]

    def test_resolve_scheduler_by_name(self):
        assert isinstance(resolve_scheduler("line"), LineScheduler)
        sched = resolve_scheduler("greedy", order="degree")
        assert isinstance(sched, GreedyScheduler)
        assert sched.order == "degree"

    def test_unknown_name_raises(self):
        with pytest.raises(SchedulingError, match="unknown scheduler"):
            resolve_scheduler("does-not-exist")


class TestScheduleFacade:
    """repro.schedule(): the one entry point wrapping the registry."""

    @pytest.mark.parametrize(
        "net,cls", CASES, ids=[n.topology.name for n, _ in CASES]
    )
    def test_auto_algo_end_to_end(self, net, cls):
        import repro

        rng = np.random.default_rng(3)
        inst = random_k_subsets(net, w=max(2, net.n // 2), k=2, rng=rng)
        sched = repro.schedule(inst, rng=rng)
        sched.validate()

    def test_explicit_algo_overrides_topology(self):
        import repro
        from repro.core.dispatch import resolve_scheduler

        net = grid(4)
        rng = np.random.default_rng(4)
        inst = random_k_subsets(net, w=8, k=2, rng=rng)
        sched = repro.schedule(inst, algo="greedy", rng=rng)
        sched.validate()
        assert isinstance(
            resolve_scheduler("greedy", topology="grid"), GreedyScheduler
        )

    def test_baseline_algos_fall_through_to_registry(self):
        import repro

        net = line(6)
        rng = np.random.default_rng(5)
        inst = random_k_subsets(net, w=4, k=2, rng=rng)
        repro.schedule(inst, algo="sequential", rng=rng).validate()

    def test_kernel_typo_fails_fast(self):
        # the kernel switch is gone: any kernel= is an unknown scheduler
        # option, rejected when the scheduler is built, before any work
        import repro

        net = clique(4)
        rng = np.random.default_rng(6)
        inst = random_k_subsets(net, w=4, k=2, rng=rng)
        with pytest.raises(TypeError, match="kernel"):
            repro.schedule(inst, kernel="simd")

    def test_foreign_network_rejected(self):
        import repro

        rng = np.random.default_rng(7)
        inst = random_k_subsets(clique(4), w=4, k=2, rng=rng)
        with pytest.raises(SchedulingError, match="instance's own network"):
            repro.schedule(inst, network=clique(5))

    def test_own_network_accepted(self):
        import repro

        rng = np.random.default_rng(8)
        inst = random_k_subsets(clique(4), w=4, k=2, rng=rng)
        repro.schedule(inst, network=inst.network, rng=rng).validate()

    def test_reference_and_vectorized_agree_through_facade(self):
        import repro
        from repro.core.coloring import greedy_color_reference
        from repro.core.dependency import build_reference
        from repro.core.greedy import positioning_offset

        net = grid(4)
        rng = np.random.default_rng(9)
        inst = random_k_subsets(net, w=8, k=2, rng=rng)
        colors = greedy_color_reference(build_reference(inst))
        offset = positioning_offset(inst, colors)
        sched = repro.schedule(inst, algo="greedy")
        assert sched.commit_times == {
            tid: c + offset for tid, c in colors.items()
        }


class TestSchedulerInfo:
    def test_registry_mirrors_topologies(self):
        from repro.network import TOPOLOGY_INFO

        # each paper family routes to its own theorem's scheduler
        for family in ("clique", "line", "grid", "cluster", "star"):
            assert TOPOLOGY_INFO[family].default_algo == family
        for family in ("hypercube", "butterfly", "ddim-grid", "torus"):
            assert TOPOLOGY_INFO[family].default_algo == "diameter"

    def test_every_entry_has_a_bound_and_factory(self):
        for name, info in SCHEDULER_INFO.items():
            assert info.name == name
            assert info.bound
            sched = info.factory()
            assert sched.name == name


class TestOneShotPath:
    """schedule() is the resolved scheduler, with no session in between."""

    @pytest.mark.parametrize(
        "net,cls", CASES, ids=[n.topology.name for n, _ in CASES]
    )
    def test_schedule_is_the_resolved_scheduler(self, net, cls):
        inst = random_k_subsets(
            net, w=max(2, net.n // 2), k=2, rng=np.random.default_rng(12)
        )
        got = schedule(inst, rng=np.random.default_rng(13))
        want = resolve_scheduler(topology=net.topology.name).schedule(
            inst, np.random.default_rng(13)
        )
        assert got.instance is inst
        assert got.commit_times == want.commit_times
        assert got.meta == want.meta

    def test_incremental_names_are_gone(self):
        for name in ("incremental", "incremental-clique",
                     "incremental-diameter"):
            assert name not in SCHEDULER_INFO
            with pytest.raises(SchedulingError, match="unknown scheduler"):
                resolve_scheduler(name)

    def test_unknown_mode_rejected(self):
        # schedule() has no mode keyword: any mode= reaches the
        # scheduler's constructor as an unknown option
        inst = random_k_subsets(
            clique(4), w=3, k=2, rng=np.random.default_rng(15)
        )
        with pytest.raises(TypeError, match="mode"):
            schedule(inst, mode="turbo")
