"""The pipeline benchmark's golden digests, pinned in the tier-1 suite.

One untimed pass of every workload of ``benchmarks/pipeline`` at the
benchmark's default seed must reproduce ``benchmarks/pipeline/golden.json``:
the digest of the service's commits for the in-process workloads, and of
the cluster report's parity key for ``cluster-kill``, whose pass kills
both workers once, so kill parity is pinned as well.  The passes are
built by the benchmark's own ``workloads.py``, which is only read.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PIPELINE = Path(__file__).resolve().parents[1] / "benchmarks" / "pipeline"
GOLDEN = json.loads((PIPELINE / "golden.json").read_text(encoding="utf-8"))
#: the seed ``golden.json`` was recorded at (``run.py``'s default)
SEED = 20170722


def _workloads():
    name = "pipeline_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, PIPELINE / "workloads.py"
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_pass_reproduces_golden_digest(name, tmp_path):
    wl = _workloads()
    workload = wl.WORKLOADS[name]
    windows = workload.pass_windows
    if isinstance(workload, wl.ClusterWorkload):
        bench = wl.ClusterBench(workload, SEED, windows, tmp_path)
        try:
            report = bench.run_job(windows)[0]
        finally:
            bench.close()
        assert report.restarts == 2
        got = wl.digest(report.parity_key())
    else:
        got = wl.ServiceBench(workload, SEED, windows).run_pass().digest
    assert got == GOLDEN[name]
