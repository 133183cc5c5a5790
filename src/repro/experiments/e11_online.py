"""E11 (extension, §9 open question 1) -- online scheduling.

Poisson arrival streams on three topology families, scheduled by (a) the
timestamp-priority contention manager, (b) a random-priority manager, and
(c) epoch batching of the paper's offline schedulers.  Low arrival rates
favour the reactive managers (no batching latency); as the rate rises and
batches grow contended, the offline schedulers' conflict-aware ordering
pays for the wait.
"""

from __future__ import annotations

from ..analysis.stats import summarize
from ..analysis.tables import Table
from ..network.topologies import clique, cluster, grid
from ..online import (
    poisson_workload,
    random_priority,
    run_epoch_batched,
    run_resilient,
)
from ..workloads.seeds import spawn
from ..obs.recorder import Recorder

EXP_ID = "e11"
TITLE = "E11 (extension): online arrivals -- priority managers vs epoch batching"
SUPPORTS_RECORDER = True


def run(
    seed: int | None = None,
    quick: bool = False,
    recorder: Recorder | None = None,
) -> Table:
    trials = 2 if quick else 5
    rates = [0.2, 1.0] if quick else [0.1, 0.3, 1.0, 3.0]
    networks = [clique(32), grid(6), cluster(4, 6, gamma=8)]
    table = Table(
        TITLE,
        columns=[
            "topology",
            "rate",
            "policy",
            "makespan",
            "mean_response",
            "max_response",
        ],
    )
    for net in networks:
        count = min(24, net.n)
        w = max(4, count // 3)
        for rate in rates:
            agg: dict[str, list[tuple[int, float, int]]] = {}
            for trial in range(trials):
                rng = spawn(seed, EXP_ID, net.topology.name, rate, trial)
                wl = poisson_workload(net, w=w, k=2, rate=rate, count=count, rng=rng)
                runs = {
                    "timestamp": run_resilient(wl, recorder=recorder),
                    "random-prio": run_resilient(
                        wl,
                        priority=random_priority,
                        rng=spawn(seed, EXP_ID, "rp", trial),
                        recorder=recorder,
                    ),
                    "epoch-batch": run_epoch_batched(
                        wl, rng=spawn(seed, EXP_ID, "eb", trial)
                    ),
                }
                for name, res in runs.items():
                    res.schedule.validate()
                    agg.setdefault(name, []).append(
                        (res.makespan, res.mean_response, res.max_response)
                    )
            for name, cells in agg.items():
                table.add(
                    topology=net.topology.name,
                    rate=rate,
                    policy=name,
                    makespan=summarize([c[0] for c in cells]).mean,
                    mean_response=summarize([c[1] for c in cells]).mean,
                    max_response=summarize([c[2] for c in cells]).mean,
                )
    table.add_note(
        "All three policies produce feasible schedules respecting release "
        "times.  The timestamp manager is the Greedy CM of [13] adapted to "
        "the data-flow model; epoch-batch reuses the paper's offline "
        "schedulers per batch."
    )
    return table
