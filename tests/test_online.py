"""Unit tests for the online scheduling extension (repro.online)."""

import numpy as np
import pytest

from repro.core import Transaction
from repro.errors import InstanceError
from repro.network import clique, cluster, grid, line
from repro.online import (
    OnlineWorkload,
    TimedTransaction,
    poisson_workload,
    random_priority,
    run_epoch_batched,
    run_resilient,
    timestamp_priority,
)
from repro.workloads import root_rng


def tiny_workload(releases=(0, 2, 5)):
    net = line(8)
    txns = [
        Transaction(0, 0, {0}),
        Transaction(1, 4, {0}),
        Transaction(2, 7, {1}),
    ]
    arrivals = [
        TimedTransaction(releases[i], txns[i]) for i in range(3)
    ]
    return OnlineWorkload(net, arrivals, {0: 0, 1: 7})


class TestWorkload:
    def test_arrivals_sorted_by_release(self):
        wl = tiny_workload(releases=(5, 0, 2))
        assert [a.release for a in wl.arrivals] == [0, 2, 5]

    def test_release_lookup_and_horizon(self):
        wl = tiny_workload()
        assert wl.release_of(2) == 5
        assert wl.horizon == 5
        assert wl.m == 3

    def test_rejects_negative_release(self):
        net = line(3)
        with pytest.raises(InstanceError, match="negative"):
            OnlineWorkload(
                net,
                [TimedTransaction(-1, Transaction(0, 0, {0}))],
                {0: 0},
            )

    def test_poisson_shapes(self):
        wl = poisson_workload(clique(20), w=6, k=2, rate=0.5, count=15,
                              rng=root_rng(0))
        assert wl.m == 15
        rel = [a.release for a in wl.arrivals]
        assert rel == sorted(rel)
        assert all(r >= 1 for r in rel)

    def test_poisson_count_capped_by_nodes(self):
        with pytest.raises(InstanceError, match="exceeds"):
            poisson_workload(clique(4), 2, 1, 1.0, 5, root_rng(1))

    def test_poisson_param_validation(self):
        with pytest.raises(ValueError):
            poisson_workload(clique(4), 2, 3, 1.0, 2, root_rng(2))
        with pytest.raises(ValueError):
            poisson_workload(clique(4), 2, 1, 0.0, 2, root_rng(3))


class TestRunOnline:
    """The online engine on the empty plan: the Greedy contention manager."""

    def test_schedule_feasible_and_respects_releases(self):
        wl = tiny_workload()
        res = run_resilient(wl)
        res.schedule.validate()
        for tid, ct in res.schedule.commit_times.items():
            assert ct >= wl.release_of(tid)

    def test_timestamp_serves_older_first(self):
        # both txns need object 0; the earlier-released one commits first
        wl = tiny_workload()
        res = run_resilient(wl)
        assert res.schedule.time_of(0) < res.schedule.time_of(1)

    def test_response_metrics(self):
        wl = tiny_workload()
        res = run_resilient(wl)
        rts = res.response_times
        assert set(rts) == {0, 1, 2}
        assert res.max_response >= res.mean_response > 0 or (
            res.mean_response >= 0
        )

    def test_random_priority_feasible(self):
        wl = poisson_workload(grid(5), w=6, k=2, rate=0.7, count=20,
                              rng=root_rng(4))
        res = run_resilient(wl, priority=random_priority, rng=root_rng(5))
        res.schedule.validate()

    @pytest.mark.parametrize("net", [clique(16), grid(4), cluster(3, 4, 5)],
                             ids=lambda n: n.topology.name)
    def test_terminates_across_topologies(self, net):
        wl = poisson_workload(net, w=5, k=2, rate=0.4,
                              count=min(12, net.n), rng=root_rng(net.n))
        res = run_resilient(wl)
        assert len(res.schedule.commit_times) == wl.m

    def test_max_steps_guard(self, monkeypatch):
        from repro.errors import SchedulingError

        # the step guard grows with the diameter; a negative one puts it
        # below the first step, as a livelocked run would overrun it
        wl = tiny_workload()
        monkeypatch.setattr(wl.instance.network, "diameter", lambda: -100)
        with pytest.raises(SchedulingError, match="exceeded"):
            run_resilient(wl)

    def test_priority_helpers_cover_all(self):
        wl = tiny_workload()
        assert set(timestamp_priority(wl)) == {0, 1, 2}
        assert set(random_priority(wl, root_rng(6))) == {0, 1, 2}


class TestEpochBatched:
    def test_feasible_and_respects_releases(self):
        wl = poisson_workload(clique(16), w=5, k=2, rate=0.5, count=12,
                              rng=root_rng(7))
        res = run_epoch_batched(wl, rng=root_rng(8))
        res.schedule.validate()
        for tid, ct in res.schedule.commit_times.items():
            assert ct >= wl.release_of(tid)

    def test_all_transactions_scheduled(self):
        wl = poisson_workload(grid(5), w=6, k=2, rate=2.0, count=20,
                              rng=root_rng(9))
        res = run_epoch_batched(wl, rng=root_rng(10))
        assert len(res.schedule.commit_times) == 20
        assert res.commits == res.schedule.commit_times
        assert res.makespan == res.schedule.makespan
        assert res.report.as_dict() == {
            "released": 20, "committed": 20, "lost": 0, "shed": 0,
            "commit_rate": 1.0, "shed_fraction": 0.0, "retries": 0,
            "reroutes": 0, "rehomed": 0, "faults": 0, "violations": 0,
        }
        assert res.report.sanitizer_checks == 0

    def test_custom_epoch_and_scheduler(self):
        from repro.core import GreedyScheduler

        wl = poisson_workload(clique(10), w=4, k=2, rate=1.0, count=8,
                              rng=root_rng(11))
        res = run_epoch_batched(wl, scheduler=GreedyScheduler(), epoch=3)
        res.schedule.validate()
        assert res.schedule.meta["epoch"] == 3
