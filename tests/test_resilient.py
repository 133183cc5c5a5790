"""Unit tests for the fault-aware online runtime (repro.online.resilient)."""

from unittest import mock

import numpy as np
import pytest

from online_oracle import run_online

from repro.core import Transaction
from repro.errors import FaultError
from repro.faults import (
    FaultPlan,
    LinkFailure,
    NodeCrash,
    ObjectStall,
    RetryPolicy,
    random_fault_plan,
)
from repro.network import clique, cluster, grid, line
from repro.online import (
    OnlineWorkload,
    TimedTransaction,
    poisson_workload,
    random_priority,
    run_resilient,
)
from repro.sim import InvariantSanitizer
from repro.workloads import root_rng


def tiny_workload(releases=(0, 2, 5)):
    net = line(8)
    txns = [
        Transaction(0, 0, {0}),
        Transaction(1, 4, {0}),
        Transaction(2, 7, {1}),
    ]
    arrivals = [TimedTransaction(releases[i], txns[i]) for i in range(3)]
    return OnlineWorkload(net, arrivals, {0: 0, 1: 7})


def stream(net, count, seed, rate=1.0):
    return poisson_workload(net, w=max(4, count // 3), k=2, rate=rate,
                            count=count, rng=root_rng(seed))


class TestAdmissionControl:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError, match="high_water"):
            run_resilient(tiny_workload(), high_water=0)


def _assert_same_result(res, healthy):
    assert res.schedule is not None
    assert res.schedule.commit_times == healthy.schedule.commit_times
    assert res.commits == healthy.commits
    assert res.release == healthy.release
    assert res.report == healthy.report
    assert res.makespan == healthy.makespan
    assert res.response_times == healthy.response_times
    assert res.mean_response == healthy.mean_response
    assert res.max_response == healthy.max_response


class TestEmptyPlanParity:
    """The empty plan reproduces the step-driven oracle exactly."""

    @pytest.mark.parametrize(
        "net", [clique(16), grid(4), line(10), cluster(3, 4, 5)],
        ids=lambda n: n.topology.name,
    )
    def test_field_by_field(self, net):
        wl = stream(net, count=min(14, net.n), seed=net.n)
        _assert_same_result(run_resilient(wl), run_online(wl))
        _assert_same_result(
            run_resilient(wl, priority=random_priority,
                          rng=root_rng(net.n + 1)),
            run_online(wl, random_priority, rng=root_rng(net.n + 1)),
        )

    def test_no_recovery_work_on_empty_plan(self):
        res = run_resilient(tiny_workload())
        rep = res.report
        assert rep.retries == rep.reroutes == rep.rehomed == 0
        assert rep.fault_count == 0
        assert rep.commit_rate == 1.0
        assert not rep.lost and not rep.shed

    def test_explicit_empty_plan_same_as_none(self):
        wl = tiny_workload()
        assert (
            run_resilient(wl, FaultPlan()).commits
            == run_resilient(wl).commits
        )


class TestLiveFaultAbsorption:
    def test_repairable_plan_commits_everything(self):
        net = grid(5)
        for seed in range(4):
            wl = stream(net, count=16, seed=seed)
            horizon = run_resilient(wl).makespan
            plan = random_fault_plan(
                net, horizon, root_rng(100 + seed), intensity=2.0,
                objects=wl.instance.objects,
            )
            san = InvariantSanitizer()
            res = run_resilient(wl, plan, sanitizer=san)
            assert res.report.committed == wl.m
            assert res.report.commit_rate == 1.0
            assert san.violations == []
            assert san.checks > 0

    def test_transient_link_failure_delays_not_drops(self):
        wl = tiny_workload()
        healthy = run_resilient(wl)
        # cut the only route from obj 0's home toward txn 1 for a while
        plan = FaultPlan([LinkFailure(1, 2, 0, 12)])
        res = run_resilient(wl, plan)
        assert res.report.committed == wl.m
        assert res.makespan >= healthy.makespan
        assert res.report.retries > 0

    def test_reroute_around_failed_link(self):
        # clique offers detours, so a down link reroutes instead of waiting
        net = clique(6)
        txns = [Transaction(0, 5, {0})]
        wl = OnlineWorkload(net, [TimedTransaction(0, txns[0])], {0: 0})
        plan = FaultPlan([LinkFailure(0, 5, 0, 50)])
        res = run_resilient(wl, plan)
        assert res.report.committed == 1
        assert res.report.reroutes >= 1
        assert res.report.retries == 0

    def test_object_stall_backs_off(self):
        wl = tiny_workload()
        plan = FaultPlan([ObjectStall(0, 0, 6)])
        res = run_resilient(wl, plan)
        assert res.report.committed == wl.m
        assert res.report.retries > 0

    def test_permanent_partition_raises_fault_error(self):
        # node 7 is unreachable forever: the backoff budget must run out
        net = line(8)
        wl = OnlineWorkload(
            net, [TimedTransaction(0, Transaction(0, 7, {0}))], {0: 0}
        )
        plan = FaultPlan([LinkFailure(6, 7, 0, None)])
        with pytest.raises(FaultError, match="retry budget"):
            run_resilient(wl, plan, policy=RetryPolicy(max_retries=3))

    def test_plan_validated_against_network(self):
        wl = tiny_workload()
        with pytest.raises(FaultError, match="unknown"):
            run_resilient(wl, FaultPlan([NodeCrash(99, 1)]))

    def test_deterministic_given_same_inputs(self):
        wl = stream(grid(4), count=12, seed=7)
        plan = random_fault_plan(
            wl.instance.network, 40, root_rng(8), intensity=1.5,
            objects=wl.instance.objects,
        )
        a = run_resilient(wl, plan)
        b = run_resilient(wl, plan)
        assert a.commits == b.commits
        assert a.report == b.report


class TestCrashRecovery:
    def test_lease_dies_with_node_and_object_reauctioned(self):
        # obj 0 (home 0) flies toward txn 0 at node 4; node 4 crashes
        # mid-flight, so the lease dies, the object re-homes, and the
        # next-best waiter (txn 1 at node 2) wins the re-auction.
        net = line(8)
        wl = OnlineWorkload(
            net,
            [
                TimedTransaction(0, Transaction(0, 4, {0})),
                TimedTransaction(1, Transaction(1, 2, {0})),
            ],
            {0: 0},
        )
        plan = FaultPlan([NodeCrash(4, 3)])
        res = run_resilient(wl, plan)
        assert res.report.rehomed == 1
        assert res.commits.keys() == {1}
        assert dict(res.report.lost) == {0: "node 4 crashed"}
        assert res.schedule is None  # partial commit map is not a Schedule
        rep = res.report
        assert rep.committed + len(rep.lost) + len(rep.shed) == rep.released

    def test_home_crash_makes_object_unrecoverable(self):
        net = line(4)
        wl = OnlineWorkload(
            net, [TimedTransaction(2, Transaction(0, 3, {0}))], {0: 0}
        )
        res = run_resilient(wl, FaultPlan([NodeCrash(0, 1)]))
        assert res.report.committed == 0
        assert len(res.report.lost) == 1
        assert "unrecoverable" in res.report.lost[0][1]

    def test_crash_accounting_identity_random(self):
        net = grid(4)
        for seed in range(3):
            wl = stream(net, count=12, seed=50 + seed)
            plan = random_fault_plan(
                net, 40, root_rng(60 + seed), intensity=1.0,
                objects=wl.instance.objects, crash_rate=0.3,
            )
            san = InvariantSanitizer()
            res = run_resilient(wl, plan, sanitizer=san)
            rep = res.report
            assert rep.committed + len(rep.lost) + len(rep.shed) == wl.m
            assert san.violations == []


class TestAdmissionPolicies:
    def test_shed_refuses_past_high_water(self):
        wl = stream(grid(4), count=14, seed=11, rate=3.0)
        res = run_resilient(wl, high_water=3)
        rep = res.report
        assert rep.shed  # the burst must overflow a high-water of 3
        assert rep.committed + len(rep.shed) == wl.m
        assert rep.commit_rate + rep.shed_fraction == pytest.approx(1.0)
        assert all("high-water" in reason for _, reason in rep.shed)
        assert res.schedule is None

    def test_wide_high_water_is_invisible(self):
        wl = stream(grid(4), count=10, seed=12)
        plain = run_resilient(wl)
        gated = run_resilient(wl, high_water=10**6)
        assert gated.commits == plain.commits


class TestPlanQueries:
    """The engine asks the plan only where the plan can say yes."""

    QUERIES = ("link_down", "delay_factor", "down_edges", "stall")

    def _spied(self, plan):
        for name in self.QUERIES:
            setattr(plan, name, mock.Mock(side_effect=getattr(plan, name)))
        return plan

    def test_stall_of_an_unrequested_object_asks_nothing(self):
        wl = stream(grid(4), 12, seed=3)
        unused = max(wl.instance.objects) + 1  # no transaction requests it
        plan = self._spied(FaultPlan([ObjectStall(unused, 1, 50)]))
        res = run_resilient(wl, plan)
        assert plan.link_down.call_count == 0
        assert plan.delay_factor.call_count == 0
        assert plan.down_edges.call_count == 0
        assert plan.stall.call_count == 0
        healthy = run_resilient(wl)
        assert res.commits == healthy.commits
        assert res.report.retries == res.report.reroutes == 0

    def test_stall_is_asked_only_about_the_stalled_object(self):
        wl = stream(grid(4), 12, seed=3)
        stalled = min(wl.instance.objects)
        plan = self._spied(FaultPlan([ObjectStall(stalled, 1, 6)]))
        res = run_resilient(wl, plan)
        asked = {c.args[0] for c in plan.stall.call_args_list}
        assert asked == {stalled}
        assert plan.down_edges.call_count == plan.link_down.call_count == 0
        assert res.report.committed == wl.m


class TestReportRendering:
    def test_render_and_as_dict(self):
        wl = stream(grid(4), count=12, seed=13, rate=3.0)
        res = run_resilient(wl, high_water=3)
        rep = res.report
        text = rep.render()
        assert f"committed {rep.committed}/{rep.released}" in text
        assert "sanitizer" in text
        d = rep.as_dict()
        for key in ("commit_rate", "shed_fraction", "retries", "violations"):
            assert key in d

    def test_e18_runs_and_is_deterministic(self):
        from repro.experiments import run_experiment

        table = run_experiment("e18", seed=321, quick=True)
        assert {row["policy"] for row in table.rows} == {
            "resilient", "resilient-admit", "epoch-replay"
        }
        for row in table.rows:
            assert row["violations"] == 0.0
            if row["policy"] == "resilient":
                assert row["commit_rate"] == 1.0
        again = run_experiment("e18", seed=321, quick=True)
        assert again.rows == table.rows
