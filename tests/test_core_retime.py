"""Tests for schedule compaction (earliest-feasible retiming)."""

import numpy as np
import pytest

from repro.core import GreedyScheduler, compact_schedule
from repro.core.dispatch import resolve_scheduler
from repro.network import clique, cluster, grid, line, star
from repro.sim import execute
from repro.workloads import hot_object_instance, random_k_subsets

NETS = [clique(16), line(24), grid(5), cluster(3, 4, 5), star(3, 7)]


class TestCompaction:
    @pytest.mark.parametrize("net", NETS, ids=lambda n: n.topology.name)
    def test_never_later_and_feasible(self, net):
        rng = np.random.default_rng(net.n)
        inst = random_k_subsets(net, max(2, net.n // 3), 2, rng)
        original = resolve_scheduler(
            topology=inst.network.topology.name
        ).schedule(inst, rng)
        compacted = compact_schedule(original)
        compacted.validate()
        execute(compacted)
        assert compacted.makespan <= original.makespan
        assert compacted.meta["compacted_from"] == original.makespan

    def test_preserves_per_object_order(self):
        rng = np.random.default_rng(0)
        inst = random_k_subsets(clique(20), w=5, k=2, rng=rng)
        original = GreedyScheduler().schedule(inst)
        compacted = compact_schedule(original)
        for obj in inst.objects:
            orig_order = [
                t.tid
                for t in sorted(
                    inst.users(obj), key=lambda t: original.time_of(t.tid)
                )
            ]
            new_order = [
                t.tid
                for t in sorted(
                    inst.users(obj),
                    key=lambda t: (compacted.time_of(t.tid), t.tid),
                )
            ]
            assert orig_order == new_order

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        inst = random_k_subsets(grid(5), w=5, k=2, rng=rng)
        once = compact_schedule(GreedyScheduler().schedule(inst))
        twice = compact_schedule(once)
        assert once.commit_times == twice.commit_times

    def test_compacts_conservative_coloring(self):
        # hot object on a line: colouring spaces commits by h_max = span,
        # compaction restores distance-proportional spacing
        rng = np.random.default_rng(2)
        inst = hot_object_instance(line(16), w=4, k=1, rng=rng)
        original = GreedyScheduler().schedule(inst)
        compacted = compact_schedule(original)
        assert compacted.makespan < original.makespan

    def test_still_above_lower_bound(self):
        from repro.bounds import makespan_lower_bound

        rng = np.random.default_rng(4)
        inst = random_k_subsets(grid(6), w=6, k=2, rng=rng)
        compacted = compact_schedule(GreedyScheduler().schedule(inst))
        assert compacted.makespan >= makespan_lower_bound(inst)
