"""Bench E18 (extension): live fault absorption in the online runtime."""

import numpy as np

from repro.experiments import run_experiment
from repro.faults import FaultPlan, random_fault_plan
from repro.network import grid
from repro.obs import MemoryRecorder
from repro.online import poisson_workload, run_resilient
from repro.sim import InvariantSanitizer

from conftest import SEED


def test_kernel_run_resilient_healthy(benchmark):
    # the zero-fault path: the plain Greedy contention manager
    rng = np.random.default_rng(SEED)
    wl = poisson_workload(grid(8), w=16, k=2, rate=1.0, count=48, rng=rng)
    res = benchmark(lambda: run_resilient(wl))
    assert res.report.committed == wl.m
    assert res.report.retries == res.report.reroutes == 0


def test_kernel_run_resilient_disrupted(benchmark):
    rng = np.random.default_rng(SEED)
    wl = poisson_workload(grid(8), w=16, k=2, rate=1.0, count=48, rng=rng)
    horizon = run_resilient(wl).makespan
    plan = random_fault_plan(
        wl.instance.network, horizon, np.random.default_rng(SEED),
        intensity=2.0, objects=wl.instance.objects,
    )
    res = benchmark(lambda: run_resilient(wl, plan))
    assert res.report.committed == wl.m


def test_kernel_run_resilient_sanitized(benchmark):
    # sanitizer on the hot path: measures the invariant-checking overhead
    rng = np.random.default_rng(SEED)
    wl = poisson_workload(grid(8), w=16, k=2, rate=1.0, count=48, rng=rng)

    def run():
        san = InvariantSanitizer()
        return run_resilient(wl, FaultPlan(), sanitizer=san), san

    res, san = benchmark(run)
    assert san.checks > 0
    assert not san.violations
    assert res.report.committed == wl.m


def test_kernel_run_resilient_admission(benchmark):
    rng = np.random.default_rng(SEED)
    wl = poisson_workload(grid(8), w=16, k=2, rate=2.0, count=48, rng=rng)
    res = benchmark(lambda: run_resilient(wl, high_water=6))
    assert res.report.committed + len(res.report.shed) == res.report.released


def test_table_e18(benchmark, record_table):
    rec = MemoryRecorder(meta={"experiment": "e18"})
    table = benchmark.pedantic(
        lambda: run_experiment("e18", seed=SEED, quick=True, recorder=rec),
        rounds=1,
        iterations=1,
    )
    record_table("e18", table)
    assert any(n.startswith("metrics:") for n in table.notes)
    for row in table.rows:
        assert row["violations"] == 0.0
        if row["policy"] == "resilient":
            assert row["commit_rate"] == 1.0
        if row["intensity"] == 0.0 and row["policy"] == "resilient":
            assert row["retries"] == row["reroutes"] == 0.0
