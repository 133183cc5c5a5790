"""Tests for JSON serialization round trips."""

import numpy as np
import pytest

from repro.core import GreedyScheduler, resolve_scheduler
from repro.core.dispatch import schedule
from repro.errors import ReproError
from repro.io import (
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_schedule,
    network_from_dict,
    network_to_dict,
    save_instance,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.network import cluster, grid, line, star
from repro.workloads import random_k_subsets


class TestNetworkRoundTrip:
    @pytest.mark.parametrize(
        "net",
        [line(8), grid(4), cluster(2, 3), star(3, 4)],
        ids=lambda n: n.topology.name,
    )
    def test_structure_preserved(self, net):
        back = network_from_dict(network_to_dict(net))
        assert back.n == net.n
        assert list(back.edges()) == list(net.edges())
        assert back.topology.name == net.topology.name

    def test_topology_params_survive_including_tuples(self):
        net = cluster(3, 4, gamma=6)
        back = network_from_dict(network_to_dict(net))
        assert back.topology.require("clusters") == net.topology.require(
            "clusters"
        )
        assert back.topology.require("gamma") == 6

    def test_dispatch_works_after_round_trip(self):
        rng = np.random.default_rng(0)
        net = network_from_dict(network_to_dict(star(3, 5)))
        inst = random_k_subsets(net, w=4, k=2, rng=rng)
        assert resolve_scheduler(
            topology=inst.network.topology.name
        ).name == "star"


class TestInstanceRoundTrip:
    def test_full_round_trip(self):
        rng = np.random.default_rng(1)
        inst = random_k_subsets(grid(4), w=4, k=2, rng=rng)
        back = instance_from_dict(instance_to_dict(inst))
        assert back.m == inst.m
        assert back.object_homes == inst.object_homes
        for a, b in zip(inst.transactions, back.transactions):
            assert (a.tid, a.node, a.objects) == (b.tid, b.node, b.objects)

    def test_revalidation_on_load(self):
        rng = np.random.default_rng(2)
        inst = random_k_subsets(line(6), w=3, k=2, rng=rng)
        data = instance_to_dict(inst)
        data["transactions"][0]["node"] = 99  # corrupt
        from repro.errors import InstanceError

        with pytest.raises(InstanceError):
            instance_from_dict(data)


class TestScheduleRoundTrip:
    def test_commit_times_and_meta_survive(self):
        rng = np.random.default_rng(3)
        inst = random_k_subsets(line(8), w=3, k=2, rng=rng)
        s = GreedyScheduler().schedule(inst)
        back = schedule_from_dict(schedule_to_dict(s))
        assert back.commit_times == s.commit_times
        assert back.meta["scheduler"] == "greedy"
        back.validate()

    def test_makespan_preserved(self):
        rng = np.random.default_rng(4)
        inst = random_k_subsets(grid(4), w=3, k=2, rng=rng)
        s = schedule(inst, rng=rng)
        assert schedule_from_dict(schedule_to_dict(s)).makespan == s.makespan


class TestFiles:
    def test_save_load_instance(self, tmp_path):
        rng = np.random.default_rng(5)
        inst = random_k_subsets(line(8), w=3, k=2, rng=rng)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        assert load_instance(path).m == inst.m

    def test_save_load_schedule(self, tmp_path):
        rng = np.random.default_rng(6)
        inst = random_k_subsets(line(8), w=3, k=2, rng=rng)
        s = GreedyScheduler().schedule(inst)
        path = tmp_path / "sched.json"
        save_schedule(s, path)
        assert load_schedule(path).commit_times == s.commit_times

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(ReproError, match="cannot load"):
            load_instance(tmp_path / "nope.json")

    def test_load_garbage_raises(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ReproError):
            load_schedule(p)


class TestExtensionRoundTrips:
    def test_rw_instance_round_trip(self, tmp_path):
        from repro.io import load_rw_instance, save_rw_instance
        from repro.replication import random_rw_instance
        from repro.network import grid

        rng = np.random.default_rng(7)
        inst = random_rw_instance(grid(4), w=4, k=2,
                                  write_fraction=0.4, rng=rng)
        path = tmp_path / "rw.json"
        save_rw_instance(inst, path)
        back = load_rw_instance(path)
        assert back.m == inst.m
        for a, b in zip(inst.transactions, back.transactions):
            assert (a.tid, a.node, a.reads, a.writes) == (
                b.tid, b.node, b.reads, b.writes
            )
        assert back.object_homes == inst.object_homes

    def test_rw_round_trip_schedules_identically(self, tmp_path):
        from repro.io import rw_instance_from_dict, rw_instance_to_dict
        from repro.replication import (
            ReplicatedGreedyScheduler,
            random_rw_instance,
        )
        from repro.network import clique

        rng = np.random.default_rng(8)
        inst = random_rw_instance(clique(10), w=4, k=2,
                                  write_fraction=0.3, rng=rng)
        back = rw_instance_from_dict(rw_instance_to_dict(inst))
        a = ReplicatedGreedyScheduler().schedule(inst)
        b = ReplicatedGreedyScheduler().schedule(back)
        assert a.commit_times == b.commit_times

    def test_online_workload_round_trip(self, tmp_path):
        from repro.io import load_online_workload, save_online_workload
        from repro.online import poisson_workload, run_resilient
        from repro.network import clique

        rng = np.random.default_rng(9)
        wl = poisson_workload(clique(12), w=4, k=2, rate=0.5, count=8,
                              rng=rng)
        path = tmp_path / "wl.json"
        save_online_workload(wl, path)
        back = load_online_workload(path)
        assert back.m == wl.m
        assert [a.release for a in back.arrivals] == [
            a.release for a in wl.arrivals
        ]
        # the reloaded stream schedules identically
        assert (
            run_resilient(back).commits == run_resilient(wl).commits
        )

    def test_corrupt_rw_payload_rejected(self, tmp_path):
        from repro.errors import ReproError
        from repro.io import load_rw_instance

        p = tmp_path / "bad.json"
        p.write_text("[1, 2")
        with pytest.raises(ReproError):
            load_rw_instance(p)


class TestFaultPlanRoundTrip:
    def make_plan(self, net=None):
        from repro.faults import (
            DelaySpike,
            FaultPlan,
            LinkFailure,
            NodeCrash,
            ObjectStall,
        )

        return FaultPlan(
            [
                LinkFailure(0, 1, 2, 9),
                LinkFailure(1, 2, 5, None),  # permanent
                NodeCrash(3, 4),
                ObjectStall(7, 0, 6),
                DelaySpike(2, 3, 1, 8, 2.5),
            ],
            network=net,
        )

    def test_dict_round_trip_preserves_events(self):
        from repro.io import fault_plan_from_json, fault_plan_to_json

        plan = self.make_plan()
        data = fault_plan_to_json(plan)
        back = fault_plan_from_json(data)
        assert back.events == plan.events
        assert fault_plan_to_json(back) == data

    def test_file_round_trip_with_network_validation(self, tmp_path):
        from repro.io import load_fault_plan, save_fault_plan

        net = line(6)
        plan = self.make_plan(net)
        path = tmp_path / "plan.json"
        save_fault_plan(plan, path)
        back = load_fault_plan(path, network=net)
        assert back.events == plan.events

    def test_random_plan_round_trips(self, tmp_path):
        from repro.faults import random_fault_plan
        from repro.io import load_fault_plan, save_fault_plan

        net = grid(4)
        plan = random_fault_plan(
            net, 60, np.random.default_rng(5), intensity=2.0,
            objects=range(8), crash_rate=0.2,
        )
        path = tmp_path / "plan.json"
        save_fault_plan(plan, path)
        assert load_fault_plan(path, network=net).events == plan.events

    def test_unknown_kind_rejected(self):
        from repro.io import fault_plan_from_json

        with pytest.raises(ReproError, match="unknown fault event kind"):
            fault_plan_from_json({"events": [{"kind": "meteor_strike"}]})

    def test_load_validates_against_network(self, tmp_path):
        from repro.errors import FaultError
        from repro.faults import FaultPlan, NodeCrash
        from repro.io import load_fault_plan, save_fault_plan

        plan = FaultPlan([NodeCrash(40, 2)])
        path = tmp_path / "plan.json"
        save_fault_plan(plan, path)
        assert len(load_fault_plan(path)) == 1  # unvalidated load is fine
        with pytest.raises(FaultError, match="unknown node"):
            load_fault_plan(path, network=line(6))
