"""Scenario: an online transaction stream (§9 open question 1).

Transactions arrive over time on a cluster-of-racks datacenter.  Three
policies schedule the same stream: the timestamp Greedy contention
manager (objects always chase the oldest pending requester), a random
fixed-priority manager, and epoch batching that reruns the paper's
offline cluster scheduler on each batch.  The sweep over arrival rates
shows the reactive manager's response-time advantage and how batching
narrows the gap as contention rises.

Run:  python examples/online_stream.py
"""

from __future__ import annotations

from repro.analysis import Table
from repro.network import cluster
from repro.online import (
    poisson_workload,
    random_priority,
    run_epoch_batched,
    run_resilient,
)
from repro.workloads import root_rng


def main() -> None:
    net = cluster(4, 8, gamma=12)
    print(f"online stream on {net}: 28 transactions, k=2, 10 objects")
    table = Table(
        "arrival-rate sweep",
        columns=["rate", "policy", "makespan", "mean_resp", "max_resp"],
    )
    for rate in (0.1, 0.5, 2.0):
        wl = poisson_workload(
            net, w=10, k=2, rate=rate, count=28, rng=root_rng(int(rate * 10))
        )
        policies = {
            "timestamp": run_resilient(wl),
            "random-prio": run_resilient(
                wl, priority=random_priority, rng=root_rng(1)
            ),
            "epoch-batch": run_epoch_batched(wl, rng=root_rng(2)),
        }
        for name, res in policies.items():
            res.schedule.validate()
            table.add(
                rate=rate,
                policy=name,
                makespan=res.makespan,
                mean_resp=round(res.mean_response, 1),
                max_resp=res.max_response,
            )
    print(table.render())
    print("\nAll schedules are feasible and never commit before release;")
    print("the timestamp policy is the classic Greedy contention manager")
    print("adapted to mobile objects (oldest transaction always wins).")


if __name__ == "__main__":
    main()
