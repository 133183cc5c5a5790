"""Stream draw parity smoke: the streams' block draw against numpy's own.

Usage (from the repository root)::

    PYTHONPATH=src python tests/stream_parity_smoke.py

Draws the ``cluster-kill`` benchmark stream (grid(24), 2048 objects,
k=2, Poisson 1.0, seed 20170722, 64 windows of 256 steps) and an MMPP
stream whose storm rate is 12 (numpy's rejection sampler counts its
storm steps), on each of numpy's five bit generators, once through
:mod:`repro.workloads.streams` and once through the per-draw oracle
``tests/stream_oracle.py``.  Exits non-zero unless every window's rows
(object order included) and the final generator state are equal.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import stream_oracle  # noqa: E402
from repro.network import grid  # noqa: E402
from repro.workloads.seeds import DEFAULT_SEED, spawn  # noqa: E402
from repro.workloads.streams import MMPPStream, PoissonStream  # noqa: E402

BIT_GENERATORS = (np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64,
                  np.random.Philox, np.random.MT19937)
WINDOWS, STEPS = 64, 256


def _rows(stream, start, end):
    cols = stream.columns(start, end)
    return list(zip(cols.release.tolist(), cols.tid.tolist(),
                    cols.node.tolist(), map(tuple, cols.objects.tolist())))


def _state(stream) -> str:
    return json.dumps(stream._rng.bit_generator.state, sort_keys=True,
                      default=lambda a: a.tolist())


def _rng(bitgen, kind):
    """The cluster's seed sequence for ``kind`` (``StreamSpec.build``'s)
    driving ``bitgen``: on PCG64, the benchmark's own generator."""
    seq = spawn(DEFAULT_SEED, "cluster-stream", kind).bit_generator.seed_seq
    return np.random.Generator(bitgen(seq))


def _streams(bitgen):
    net = grid(24)
    yield "cluster-kill", [
        cls(net, w=2048, k=2, rate=1.0, rng=_rng(bitgen, "poisson"))
        for cls in (PoissonStream, stream_oracle.OraclePoissonStream)
    ]
    yield "mmpp-storm-12", [
        cls(net, w=2048, k=2, rate_low=1.0, rate_high=12.0, switch=0.05,
            rng=_rng(bitgen, "mmpp"))
        for cls in (MMPPStream, stream_oracle.OracleMMPPStream)
    ]


def main() -> int:
    failures = 0
    for bitgen in BIT_GENERATORS:
        for name, (ours, theirs) in _streams(bitgen):
            arrivals = 0
            equal = ours.object_homes == theirs.object_homes
            for i in range(WINDOWS):
                rows = _rows(ours, i * STEPS, (i + 1) * STEPS)
                equal = equal and rows == _rows(theirs, i * STEPS,
                                                (i + 1) * STEPS)
                arrivals += len(rows)
            equal = equal and _state(ours) == _state(theirs)
            failures += not equal
            print(f"{bitgen.__name__:10s} {name:13s} {arrivals:6d} arrivals "
                  f"{'equal' if equal else 'DIFFER'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
