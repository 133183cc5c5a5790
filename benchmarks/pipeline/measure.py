"""Measure one pipeline workload in this process; print one JSON line.

Started by ``run.py`` in a fresh subprocess per workload (with ``src``
on ``PYTHONPATH``), so each workload's peak RSS and warm-up are its own.
The result's ``metrics`` hold the end-to-end metrics of the untraced
passes, plus the per-layer metrics when ``--trace 1`` alternates
untraced and traced passes.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.benchreg.harness import calibrate

from tracing import Tracer, layer_metrics
from workloads import (
    WORKLOADS,
    ClusterBench,
    ClusterWorkload,
    PassResult,
    ServiceBench,
    scaled_windows,
)

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json")
                  .read_text(encoding="utf-8"))
#: set-up samples taken before the first pass (one more precedes each
#: pass, so the samples spread over the whole run)
SETUP_WARM = 3


def _peak_rss_mb() -> float:
    """Peak RSS of this process or any child it waited for (Linux: KiB)."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def measure(name: str, seed: int, seconds: float, trace: bool,
            scale: float, workdir: Path) -> Dict:
    workload = WORKLOADS[name]
    windows = scaled_windows(workload, scale)
    calibration_s = calibrate()
    bench = (ClusterBench(workload, seed, windows, workdir)
             if isinstance(workload, ClusterWorkload)
             else ServiceBench(workload, seed, windows))
    setups = [bench.setup_once() for _ in range(SETUP_WARM)]
    tracer = Tracer(workdir / "spans")
    runs: Dict[bool, List[PassResult]] = {False: [], True: []}
    modes = (False, True) if trace else (False,)
    start = time.perf_counter()
    rounds = 0
    try:
        while True:
            for traced in modes:
                setups.append(bench.setup_once())
                if traced:
                    tracer.install()
                try:
                    runs[traced].append(bench.run_pass())
                finally:
                    tracer.uninstall()
            rounds += 1
            elapsed = time.perf_counter() - start
            # stop when another round would end past the budget by more
            # than half a round
            if elapsed + 0.5 * elapsed / rounds >= seconds:
                break
    finally:
        bench.close()

    plain = runs[False]
    digests = sorted({p.digest for p in plain + runs[True]})
    rate, window_s = bench.timing(plain)
    window_ms = window_s * 1e3
    metrics = {
        "throughput_txn_s": rate,
        "window_p50_ms": float(np.percentile(window_ms, 50)),
        "window_p90_ms": float(np.percentile(window_ms, 90)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": _peak_rss_mb(),
    }
    if trace:
        traced = runs[True]
        extra = dict(traced[0].stats)
        extra["trace.overhead_frac"] = 1.0 - bench.timing(traced)[0] / rate
        if isinstance(bench, ClusterBench):
            gaps = [g for p in traced for g in p.window_s.values()]
            extra["supervisor.window_gap_p99_ms"] = float(
                np.percentile(gaps, 99)) * 1e3
        metrics.update(layer_metrics(
            tracer.totals(), len(traced), extra,
            [m["name"] for m in SPEC["per_layer"]]))
    units = {m["name"]: m["unit"]
             for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    attempted = sum(p.windows for p in plain + runs[True])
    correct = len(digests) == 1
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "scale": scale,
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "digest": digests[0] if correct else digests,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "detail": {
            "calibration_s": calibration_s,
            "windows_per_pass": windows,
            "passes": len(plain),
            "traced_passes": len(runs[True]),
            "window_samples": int(window_ms.size),
            "pass_throughputs": [bench.timing([p])[0] for p in plain],
            "setup_samples_s": setups,
            "measured_s": time.perf_counter() - start,
            "pass": plain[0].stats,
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.scale, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
