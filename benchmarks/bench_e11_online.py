"""Bench E11 (extension): online contention management."""

import numpy as np

from repro.experiments import run_experiment
from repro.network import clique
from repro.online import poisson_workload, run_epoch_batched

from conftest import SEED


def _workload():
    rng = np.random.default_rng(SEED)
    return poisson_workload(clique(64), w=16, k=2, rate=1.0, count=48, rng=rng)


def test_kernel_epoch_batching(benchmark):
    wl = _workload()
    result = benchmark(
        lambda: run_epoch_batched(wl, rng=np.random.default_rng(SEED))
    )
    assert len(result.schedule.commit_times) == wl.m


def test_table_e11(benchmark, record_table):
    table = benchmark.pedantic(
        lambda: run_experiment("e11", seed=SEED, quick=True),
        rounds=1,
        iterations=1,
    )
    record_table("e11", table)
    assert {r["policy"] for r in table.rows} == {
        "timestamp", "random-prio", "epoch-batch",
    }
