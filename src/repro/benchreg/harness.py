"""The benchmark definitions and timing loop.

Each :class:`BenchSpec` names one timed closure over a shared, seeded
workload (576 transactions on a 24x24 grid -- above the 512-transaction
floor where the array implementations earn their keep).  Each hot path is
timed twice: the ``vectorized`` entry runs the production function, the
``reference`` entry its pure-Python oracle (``build_reference``,
``greedy_color_reference``, ``execute_reference``).  Timing takes the
minimum over ``repeats`` runs (minimum, not mean: noise only ever adds
time), and every snapshot records a calibration measurement of a fixed
numpy+python workload so times can be compared across machines as
multiples of the calibration rather than raw seconds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Tuple

import numpy as np

__all__ = ["BenchSpec", "BENCH_SPECS", "run_harness", "merge_runs", "calibrate"]

SEED = 20170722
#: per-benchmark sampling budget, seconds: keep re-running until this much
#: timed work has accumulated (min 5 runs, capped at MAX_RUNS).  A fixed
#: repeat count under-samples sub-millisecond benches, whose min-of-few is
#: then dominated by scheduler noise.
BUDGET_S = 0.5
QUICK_BUDGET_S = 0.35
MAX_RUNS = 200


@dataclass(frozen=True)
class BenchSpec:
    """One timed benchmark.

    ``setup`` builds the inputs once (untimed); ``run`` is the timed
    closure, called with setup's result.  ``kernel`` labels the entry
    (``reference`` for an oracle, ``vectorized`` for production code);
    specs sharing a ``group`` with both labels get a speedup entry in the
    snapshot.
    """

    name: str
    group: str
    kernel: str
    setup: Callable[[], Any]
    run: Callable[[Any], Any]
    meta: Dict[str, Any] = field(default_factory=dict)


def _workload():
    from ..network import grid
    from ..workloads import random_k_subsets

    rng = np.random.default_rng(SEED)
    net = grid(24)  # 576 nodes
    inst = random_k_subsets(net, w=96, k=4, rng=rng)
    net.distance_matrix  # pay the all-pairs solve outside the timers
    return net, inst


_META = {"topology": "grid(24)", "transactions": 576, "w": 96, "k": 4}


def _dep_setup():
    _, inst = _workload()
    return inst


def _color_setup(kernel):
    """Graph built by the same family that will colour it -- the
    pairing each pipeline actually runs."""

    def setup():
        _, inst = _workload()
        return _build(kernel)(inst)

    return setup


def _schedule_setup():
    _, inst = _workload()
    return inst


def _execute_setup():
    from ..core.greedy import GreedyScheduler

    _, inst = _workload()
    return GreedyScheduler().schedule(inst)


def _masked_setup():
    net, inst = _workload()
    net._ensure_pred()
    return net, inst


def _build(kernel):
    from ..core.dependency import DependencyGraph, build_reference

    return build_reference if kernel == "reference" else DependencyGraph.build


def _color(kernel):
    from ..core.coloring import greedy_color, greedy_color_reference

    return greedy_color_reference if kernel == "reference" else greedy_color


def _pipeline_run(kernel):
    build, color = _build(kernel), _color(kernel)
    return lambda inst: color(build(inst))


def _reference_schedule(inst):
    """The greedy schedule assembled from the oracles."""
    from ..core.greedy import positioning_offset_reference
    from ..core.schedule import Schedule

    colors = _pipeline_run("reference")(inst)
    offset = positioning_offset_reference(inst, colors)
    return Schedule(inst, {tid: c + offset for tid, c in colors.items()})


def _schedule_run(kernel):
    from ..core.greedy import GreedyScheduler

    if kernel == "reference":
        return _reference_schedule
    return GreedyScheduler().schedule


def _execute_run(kernel):
    from ..sim.engine import execute, execute_reference

    replay = execute_reference if kernel == "reference" else execute

    def run(sched):
        sched._itineraries = None  # force a fresh routing pass
        return replay(sched)

    return run


def _masked_run(arg):
    net, inst = arg
    view = net.masked([(0, 1), (24, 25)])
    src = np.arange(0, 570, dtype=np.int64)
    dst = (src * 7 + 3) % net.n
    return view.pair_distances(src, dst)


def _specs() -> Tuple[BenchSpec, ...]:
    specs = []
    for group, setupf, runf in (
        ("dependency_build", lambda kernel: _dep_setup, _build),
        ("greedy_color", _color_setup, _color),
        ("dependency_greedy", lambda kernel: _dep_setup, _pipeline_run),
        ("greedy_schedule", lambda kernel: _schedule_setup, _schedule_run),
        ("execute", lambda kernel: _execute_setup, _execute_run),
    ):
        for kernel in ("reference", "vectorized"):
            specs.append(
                BenchSpec(
                    name=f"{group}/{kernel}",
                    group=group,
                    kernel=kernel,
                    setup=setupf(kernel),
                    run=runf(kernel),
                    meta=dict(_META),
                )
            )
    specs.append(
        BenchSpec(
            name="masked_network/pair_distances",
            group="masked_network",
            kernel="vectorized",
            setup=_masked_setup,
            run=_masked_run,
            meta={"topology": "grid(24)", "down_edges": 2, "pairs": 570},
        )
    )
    return tuple(specs)


BENCH_SPECS: Tuple[BenchSpec, ...] = _specs()


def calibrate() -> float:
    """Seconds for a fixed numpy+python reference workload.

    A mix of array sorting and a python-level loop, roughly mirroring the
    kernels' own mix; used as the unit for machine-normalized timings.
    """
    rng = np.random.default_rng(0)
    a = rng.integers(0, 1 << 30, size=200_000)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        np.sort(a)
        acc = 0
        for i in range(50_000):
            acc += i * 31 % 1009
        best = min(best, time.perf_counter() - t0)
    return best


def _time(spec: BenchSpec, budget_s: float) -> Tuple[float, int]:
    """Minimum runtime over as many runs as fit in ``budget_s``."""
    arg = spec.setup()
    spec.run(arg)  # warm caches outside the timed region
    best = float("inf")
    spent = 0.0
    runs = 0
    while runs < 5 or (spent < budget_s and runs < MAX_RUNS):
        t0 = time.perf_counter()
        spec.run(arg)
        dt = time.perf_counter() - t0
        best = min(best, dt)
        spent += dt
        runs += 1
    return best, runs


def run_harness(quick: bool = False, verbose: bool = False) -> Dict[str, Any]:
    """Time every spec and return the snapshot body (see snapshot.py).

    ``quick`` shrinks the sampling budget -- same benchmarks, same sizes,
    so quick results remain comparable to full snapshots (just noisier).
    """
    budget = QUICK_BUDGET_S if quick else BUDGET_S
    cal = calibrate()
    raws = {spec.name: _time(spec, budget) for spec in BENCH_SPECS}
    # recalibrate after the timing pass and keep the faster measurement:
    # machine-load drift during the run otherwise skews every normalization
    cal = min(cal, calibrate())
    results: Dict[str, Any] = {}
    for spec in BENCH_SPECS:
        raw, runs = raws[spec.name]
        results[spec.name] = {
            "raw_s": raw,
            "normalized": raw / cal,
            "group": spec.group,
            "kernel": spec.kernel,
            "repeats": runs,
            "meta": spec.meta,
        }
        if verbose:
            print(f"  {spec.name:32s} {raw * 1e3:9.2f} ms "
                  f"({raw / cal:6.2f}x cal)")
    speedups: Dict[str, Any] = {}
    by_group: Dict[str, Dict[str, float]] = {}
    for name, res in results.items():
        by_group.setdefault(res["group"], {})[res["kernel"]] = res["raw_s"]
    for group, kernels in by_group.items():
        if "reference" in kernels and "vectorized" in kernels:
            speedups[group] = {
                "reference_s": kernels["reference"],
                "vectorized_s": kernels["vectorized"],
                "speedup": kernels["reference"] / kernels["vectorized"],
            }
    return {
        "calibration_s": cal,
        "quick": quick,
        "results": results,
        "speedups": speedups,
    }


def merge_runs(bodies, reduce="median"):
    """Merge several ``run_harness`` bodies into one, per-bench.

    ``reduce="median"`` (baselines): a single pass inherits whatever
    machine window it lands in, and a min caught in an anomalously fast
    window makes every later comparison look like a regression -- the
    median across passes votes such windows out.  ``reduce="min"``
    (regression checks): noise only ever inflates a timing, so the best
    the machine can do *now*, compared against the baseline's typical
    speed, is robust to load spikes during the check while a real
    slowdown still shows up in every pass.
    """
    if not bodies:
        raise ValueError("merge_runs(): need at least one harness body")
    if reduce not in ("median", "min"):
        raise ValueError(f"merge_runs(): unknown reduce {reduce!r}")
    agg = np.median if reduce == "median" else np.min
    if len(bodies) == 1:
        return bodies[0]
    names = list(bodies[0]["results"])
    cal = float(agg([b["calibration_s"] for b in bodies]))
    results = {}
    for name in names:
        raw = float(agg([b["results"][name]["raw_s"] for b in bodies]))
        res = dict(bodies[0]["results"][name])
        res["raw_s"] = raw
        res["normalized"] = raw / cal
        res["repeats"] = sum(b["results"][name]["repeats"] for b in bodies)
        results[name] = res
    speedups = {}
    by_group = {}
    for name, res in results.items():
        by_group.setdefault(res["group"], {})[res["kernel"]] = res["raw_s"]
    for group, kernels in by_group.items():
        if "reference" in kernels and "vectorized" in kernels:
            speedups[group] = {
                "reference_s": kernels["reference"],
                "vectorized_s": kernels["vectorized"],
                "speedup": kernels["reference"] / kernels["vectorized"],
            }
    return {
        "calibration_s": cal,
        "quick": bodies[0]["quick"],
        "merged_runs": len(bodies),
        "results": results,
        "speedups": speedups,
    }
