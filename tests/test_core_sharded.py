"""Unit tests for the two-phase sharded scheduler (arXiv:2405.15015 style).

The split is the correctness core: a transaction is cross-shard iff its
objects' homes span >= 2 shards, and the intra groups of different shards
are conflict-disjoint (each object is homed in exactly one shard), which
is what licenses merging them in parallel at t = 0.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ShardedClusterScheduler,
    ShardedScheduler,
    cross_shard_ratio,
    resolve_scheduler,
    shard_split,
)
from repro.errors import TopologyError
from repro.network import clique, node_shards, shard_cluster
from repro.sim import execute
from repro.staticcheck import certify_schedule
from repro.workloads import partitioned_instance, random_k_subsets
from repro.workloads.seeds import spawn


def sharded_instance(shards=3, shard_size=4, cross=0.3, k=2, seed=0,
                     gamma=None):
    net = shard_cluster(shards, shard_size, gamma=gamma)
    groups = net.topology.params["members"]
    rng = np.random.default_rng(seed)
    return partitioned_instance(
        net, groups, objects_per_group=max(k, 3), k=k,
        cross_fraction=cross, rng=rng,
    )


class TestShardSplit:
    def test_classification_agrees_with_homes(self):
        inst = sharded_instance(seed=1)
        shard_of = node_shards(inst.network)
        split = shard_split(inst)
        cross = set(split.cross)
        for t in inst.transactions:
            homes = {shard_of[inst.home(o)] for o in t.objects}
            assert (t.tid in cross) == (len(homes) >= 2)

    def test_intra_tids_live_in_their_shard(self):
        inst = sharded_instance(seed=2)
        shard_of = node_shards(inst.network)
        by_tid = {t.tid: t for t in inst.transactions}
        for sid, tids in shard_split(inst).intra:
            for tid in tids:
                homes = {shard_of[inst.home(o)] for o in by_tid[tid].objects}
                assert homes in ({sid}, set())

    def test_split_is_a_partition_of_tids(self):
        inst = sharded_instance(seed=3)
        split = shard_split(inst)
        seen = sorted(
            list(split.cross)
            + [tid for _, tids in split.intra for tid in tids]
        )
        assert seen == sorted(t.tid for t in inst.transactions)

    def test_fully_local_has_no_cross(self):
        inst = sharded_instance(cross=0.0, seed=4)
        assert shard_split(inst).cross_count == 0
        assert cross_shard_ratio(inst) == 0.0

    @given(
        shards=st.integers(min_value=2, max_value=4),
        size=st.integers(min_value=2, max_value=4),
        cross=st.sampled_from([0.0, 0.2, 0.6]),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=25, deadline=None)
    def test_classification_property(self, shards, size, cross, seed):
        inst = sharded_instance(shards, size, cross=cross, seed=seed)
        shard_of = node_shards(inst.network)
        cross_tids = set(shard_split(inst).cross)
        for t in inst.transactions:
            homes = {shard_of[inst.home(o)] for o in t.objects}
            assert (t.tid in cross_tids) == (len(homes) >= 2)


class TestShardedScheduler:
    def test_registered_names(self):
        assert isinstance(resolve_scheduler("sharded"), ShardedScheduler)
        assert isinstance(
            resolve_scheduler("sharded-cluster"), ShardedClusterScheduler
        )

    def test_requires_sharded_topology(self):
        rng = np.random.default_rng(0)
        inst = random_k_subsets(clique(8), w=4, k=2, rng=rng)
        with pytest.raises(TopologyError):
            ShardedScheduler().schedule(inst, rng)

    @pytest.mark.parametrize(
        "cls", [ShardedScheduler, ShardedClusterScheduler],
        ids=["greedy", "rounds"],
    )
    def test_feasible_both_cross_modes(self, cls):
        inst = sharded_instance(seed=5)
        rng = np.random.default_rng(5)
        s = cls().schedule(inst, rng)
        s.validate()
        execute(s)
        assert s.meta["cross_mode"] == cls.cross_mode
        assert s.meta["cross"] > 0

    def test_meta_records_phase_composition(self):
        inst = sharded_instance(cross=0.4, seed=6)
        s = ShardedScheduler().schedule(inst, np.random.default_rng(6))
        assert s.meta["intra"] + s.meta["cross"] == len(inst.transactions)
        assert s.makespan <= s.meta["intra_makespan"] + s.meta["cross_makespan"]
        assert s.meta["shards"] == 3

    def test_cross_commits_after_intra_phase(self):
        inst = sharded_instance(cross=0.5, seed=7)
        split = shard_split(inst)
        s = ShardedScheduler().schedule(inst, np.random.default_rng(7))
        intra_end = s.meta["intra_makespan"]
        for tid in split.cross:
            assert s.commit_times[tid] > intra_end

    def test_deterministic_greedy_cross(self):
        inst = sharded_instance(seed=8)
        a = ShardedScheduler().schedule(inst, np.random.default_rng(1))
        b = ShardedScheduler().schedule(inst, np.random.default_rng(2))
        assert a.commit_times == b.commit_times

    def test_rounds_mode_records_protocol_meta(self):
        inst = sharded_instance(cross=0.5, seed=9)
        s = ShardedClusterScheduler().schedule(
            inst, np.random.default_rng(9)
        )
        assert s.meta["cross_mode"] == "rounds"
        assert s.meta["rounds_used"] >= 1
        assert s.meta["round_duration"] >= 1
        s.validate()

    def test_certificate_passes(self):
        inst = sharded_instance(cross=0.3, seed=10)
        s = ShardedScheduler().schedule(inst, np.random.default_rng(10))
        cert = certify_schedule(s)
        assert cert.ok
        bound = [c for c in cert.checks if c.name == "theorem_bound"][0]
        assert "not enforced" in bound.detail

    @given(
        shards=st.integers(min_value=2, max_value=4),
        size=st.integers(min_value=3, max_value=5),
        cross=st.sampled_from([0.0, 0.25, 0.5]),
        seed=st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=15, deadline=None)
    def test_certificate_property(self, shards, size, cross, seed):
        # the §2 feasibility certificate holds structurally: phase
        # composition keeps every itinerary leg within its time budget
        inst = sharded_instance(shards, size, cross=cross, seed=seed)
        rng = spawn(seed, "sharded-cert", shards, size)
        s = ShardedScheduler().schedule(inst, rng)
        assert certify_schedule(s).ok

    def test_zero_cross_matches_per_shard_greedy(self):
        # with no cross phase, makespan is the slowest shard's greedy pass
        inst = sharded_instance(cross=0.0, seed=11)
        s = ShardedScheduler().schedule(inst, np.random.default_rng(11))
        assert s.meta["cross_makespan"] == 0
        per_shard = dict(s.meta["per_shard_makespans"])
        assert s.makespan == max(per_shard.values())
