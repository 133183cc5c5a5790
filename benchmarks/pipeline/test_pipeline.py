"""Smoke test of the pipeline benchmark at 1/64 of each pass.

Run with ``PYTHONPATH=src python -m pytest benchmarks/pipeline -q``.
Every workload runs untraced and traced through the real command; the
test checks that each metric ``BENCHMARK.json`` names is emitted with
its unit and that tracing leaves every digest unchanged.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, ClusterBench, digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BUDGET_S = 90.0


def _run(tmp_path: Path, trace: int) -> dict:
    out = tmp_path / f"trace{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "7",
         "--seconds", "0", "--scale", str(1 / 64), "--trace", str(trace),
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=BUDGET_S,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] >= 1
    return json.loads(out.read_text(encoding="utf-8"))["results"]


def test_every_metric_emitted_and_tracing_is_passive(tmp_path):
    start = time.monotonic()
    plain = _run(tmp_path, 0)
    traced = _run(tmp_path, 1)
    assert time.monotonic() - start < BUDGET_S
    names = [w["name"] for w in SPEC["workloads"]]
    assert sorted(plain) == sorted(traced) == sorted(names)
    for name in names:
        for group, results in (("end_to_end", plain), ("per_layer", traced)):
            metrics = results[name]["metrics"]
            for m in SPEC[group]:
                assert m["name"] in metrics, (name, m["name"])
                assert metrics[m["name"]]["unit"] == m["unit"]
        assert plain[name]["digest"] == traced[name]["digest"], name


def test_cluster_kills_keep_parity(tmp_path):
    bench = ClusterBench(WORKLOADS["cluster-kill"], 7, 8, tmp_path)
    try:
        killed = bench.run_job(8)[0]
        clean = bench.run_job(8, chaos=False)[0]
    finally:
        bench.close()
    assert killed.restarts == 2 and clean.restarts == 0
    assert digest(killed.parity_key()) == digest(clean.parity_key())
