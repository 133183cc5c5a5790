"""E18 (extension, §9 open question 1 x conclusion) -- online resilience.

E17 measured how a *precomputed* schedule degrades when replayed under
faults; E18 asks the harder production question: what happens when the
same faults strike while scheduling decisions are still being made?  A
Poisson arrival stream is driven through (a) the fault-aware resilient
priority runtime (live rerouting, backoff, lease recovery), (b) the same
runtime behind a load-shedding admission controller, and (c) epoch
batching of the paper's offline schedulers with the resulting schedule
replayed under the plan (the E17 pipeline).  The sweep reports
makespan/response degradation curves, retry and reroute counts, the shed
fraction, and the invariant sanitizer's verdict -- which must be zero
violations at every intensity.
"""

from __future__ import annotations

from ..analysis.stats import summarize
from ..analysis.tables import Table
from ..faults import faulty_execute, random_fault_plan
from ..network.topologies import clique, grid
from ..online import poisson_workload, run_epoch_batched, run_resilient
from ..sim.sanitizer import InvariantSanitizer
from ..workloads.seeds import spawn
from ..obs.recorder import Recorder
from .common import attach_metrics_note

EXP_ID = "e18"
TITLE = "E18 (extension): online resilience -- live faults, leases, admission"
SUPPORTS_RECORDER = True


def run(
    seed: int | None = None,
    quick: bool = False,
    recorder: Recorder | None = None,
) -> Table:
    trials = 2 if quick else 4
    intensities = [0.0, 1.0] if quick else [0.0, 0.5, 1.0, 2.0]
    networks = [grid(5), clique(16)]
    table = Table(
        TITLE,
        columns=[
            "topology",
            "intensity",
            "policy",
            "faults",
            "makespan",
            "mean_response",
            "commit_rate",
            "retries",
            "reroutes",
            "shed_frac",
            "violations",
        ],
    )
    for net in networks:
        count = min(20, net.n)
        w = max(4, count // 3)
        high_water = max(3, count // 4)
        for intensity in intensities:
            agg: dict[str, list[dict[str, float]]] = {}
            for trial in range(trials):
                rng = spawn(seed, EXP_ID, net.topology.name, intensity, trial)
                wl = poisson_workload(net, w=w, k=2, rate=1.0, count=count,
                                      rng=rng)
                healthy = run_resilient(wl, recorder=recorder)
                # repairable plans only (no crashes, no permanent failures):
                # every released transaction must commit
                plan = random_fault_plan(
                    net,
                    horizon=healthy.makespan,
                    rng=rng,
                    intensity=intensity,
                    objects=wl.instance.objects,
                )
                san = InvariantSanitizer()
                res = run_resilient(wl, plan, sanitizer=san, recorder=recorder)
                san_adm = InvariantSanitizer()
                adm = run_resilient(
                    wl, plan, high_water=high_water, sanitizer=san_adm,
                    recorder=recorder,
                )
                epoch = run_epoch_batched(
                    wl, rng=spawn(seed, EXP_ID, "eb", trial)
                )
                trace = faulty_execute(epoch.schedule, plan, recorder=recorder)
                epoch_resp = [
                    ct - wl.release_of(tid)
                    for tid, ct in trace.realized_commits.items()
                ]
                rows = {
                    "resilient": {
                        "makespan": res.makespan,
                        "mean_response": res.mean_response,
                        "commit_rate": res.report.commit_rate,
                        "retries": res.report.retries,
                        "reroutes": res.report.reroutes,
                        "shed_frac": res.report.shed_fraction,
                        "violations": res.report.violations,
                    },
                    "resilient-admit": {
                        "makespan": adm.makespan,
                        "mean_response": adm.mean_response,
                        "commit_rate": adm.report.commit_rate,
                        "retries": adm.report.retries,
                        "reroutes": adm.report.reroutes,
                        "shed_frac": adm.report.shed_fraction,
                        "violations": adm.report.violations,
                    },
                    "epoch-replay": {
                        "makespan": trace.makespan,
                        "mean_response": sum(epoch_resp) / len(epoch_resp),
                        "commit_rate": trace.committed / wl.m,
                        "retries": trace.retries,
                        "reroutes": trace.reroutes,
                        "shed_frac": 0.0,
                        "violations": 0.0,
                    },
                }
                for name, cells in rows.items():
                    cells["faults"] = len(plan)
                    agg.setdefault(name, []).append(cells)
            for name, cells in agg.items():
                table.add(
                    topology=net.topology.name,
                    intensity=intensity,
                    policy=name,
                    **{
                        c: summarize([row[c] for row in cells]).mean
                        for c in table.columns[3:]
                    },
                )
    table.add_note(
        "Live fault consumption (repro.online.run_resilient) vs the E17 "
        "replay pipeline (epoch schedule + faulty_execute), repairable "
        "plans only.  At intensity 0 the plan is empty and 'resilient' is "
        "the plain Greedy CM (no retries, no reroutes).  On these plans "
        "nothing is ever *lost*: 'resilient' commits 100%, and "
        "'resilient-admit' satisfies commit_rate + "
        "shed_frac = 1 (a shed is a typed refusal at release, at "
        "high-water max(3, m/4), never a dropped admitted transaction).  "
        "violations is the invariant sanitizer's count -- zero on a "
        "correct runtime at every intensity."
    )
    attach_metrics_note(table, recorder)
    return table
