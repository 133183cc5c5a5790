"""Rolling-session benchmark: incremental maintenance vs per-window rebuild.

The kernel benches in :mod:`.harness` time one-shot batch scheduling;
this module times the *sustained* regime the session API exists for: a
rolling window of ``WINDOW`` live transactions over a 24x24 grid, where
every epoch commits the ``EPOCH_BATCH`` oldest transactions, admits the
next ``EPOCH_BATCH`` arrivals, and re-reads the full schedule.  The
incremental engine repairs only the dirty neighborhood per delta; the
baseline rebuilds the conflict graph and recolors from scratch each
epoch (the pre-1.1.0 service behavior).  Both produce identical
schedules -- the parity tests prove it -- so the comparison is pure
overhead.

Reported per engine: sustained throughput (committed transactions per
second of scheduling work) and the p99 epoch latency.  The snapshot
gate (:func:`~repro.benchreg.compare.check_session_gate`) requires the
incremental engine to sustain at least ``MIN_SESSION_SPEEDUP``x the
rebuild throughput.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

import numpy as np

__all__ = [
    "SESSION_TOTAL",
    "QUICK_SESSION_TOTAL",
    "WINDOW",
    "EPOCH_BATCH",
    "run_session_bench",
    "attach_session_results",
]

SESSION_TOTAL = 100_000
QUICK_SESSION_TOTAL = 20_000
WINDOW = 512
EPOCH_BATCH = 32
OBJECT_POOL = 2048
OBJECTS_PER_TXN = 2
_SEED = 20170722


def _session_workload(total: int):
    """``total`` pre-generated arrivals on grid(24), pool of 96 objects.

    Node assignment is ``tid % n`` so any ``WINDOW``-sized slice of the
    stream keeps the one-transaction-per-node invariant (WINDOW < 576).
    """
    from ..core.transaction import Transaction
    from ..network import grid

    net = grid(24)  # 576 nodes > WINDOW
    net.distance_matrix  # pay the all-pairs solve outside the timers
    rng = np.random.default_rng(_SEED)
    homes = {
        obj: int(node)
        for obj, node in enumerate(rng.integers(0, net.n, size=OBJECT_POOL))
    }
    txns = [
        Transaction(
            tid,
            tid % net.n,
            rng.choice(OBJECT_POOL, size=OBJECTS_PER_TXN, replace=False),
        )
        for tid in range(total)
    ]
    return net, homes, txns


def _epoch_metrics(latencies: List[float], committed: int) -> Dict[str, Any]:
    lat = np.asarray(latencies, dtype=np.float64)
    total_s = float(lat.sum())
    return {
        "committed": committed,
        "epochs": len(latencies),
        "total_s": total_s,
        "throughput_txn_s": committed / total_s if total_s > 0 else 0.0,
        "p50_latency_s": float(np.percentile(lat, 50)),
        "p99_latency_s": float(np.percentile(lat, 99)),
        "max_latency_s": float(lat.max()),
    }


def _run_incremental(net, homes, txns) -> Dict[str, Any]:
    from ..core.incremental import SchedulerSession

    with SchedulerSession(net, algo="greedy", object_homes=homes) as sess:
        sess.submit(txns[:WINDOW])
        sess.current_schedule()  # warm: first full coloring is untimed
        latencies: List[float] = []
        committed = 0
        next_tid = WINDOW
        while next_tid + EPOCH_BATCH <= len(txns):
            oldest = sess.active_ids()[:EPOCH_BATCH]
            batch = txns[next_tid:next_tid + EPOCH_BATCH]
            t0 = time.perf_counter()
            sess.commit(oldest)
            sess.submit(batch)
            sess.current_schedule()
            latencies.append(time.perf_counter() - t0)
            committed += len(oldest)
            next_tid += EPOCH_BATCH
        stats = sess.stats
    out = _epoch_metrics(latencies, committed)
    out["engine_stats"] = {
        k: v for k, v in stats.items()
        if k in ("repairs_examined", "repairs_changed", "full_rebuilds",
                 "memo_hits", "memo_misses")
    }
    return out


def _run_rebuild(net, homes, txns) -> Dict[str, Any]:
    from ..core.greedy import GreedyScheduler
    from ..core.instance import Instance

    sched = GreedyScheduler()
    active: List = list(txns[:WINDOW])
    # warm: numba/numpy paths and the first instance build are untimed
    used = {o for t in active for o in t.objects}
    sched.schedule(Instance(net, active,
                            {o: homes[o] for o in sorted(used)}))
    latencies: List[float] = []
    committed = 0
    next_tid = WINDOW
    while next_tid + EPOCH_BATCH <= len(txns):
        batch = txns[next_tid:next_tid + EPOCH_BATCH]
        t0 = time.perf_counter()
        active = active[EPOCH_BATCH:] + batch
        used = {o for t in active for o in t.objects}
        inst = Instance(net, active, {o: homes[o] for o in sorted(used)})
        sched.schedule(inst)
        latencies.append(time.perf_counter() - t0)
        committed += EPOCH_BATCH
        next_tid += EPOCH_BATCH
    return _epoch_metrics(latencies, committed)


def run_session_bench(
    quick: bool = False, verbose: bool = False
) -> Dict[str, Any]:
    """Run both engines over the rolling workload; return the session block.

    The block is snapshot-ready: ``attach_session_results`` merges it
    into a :func:`~repro.benchreg.harness.run_harness` body.
    """
    total = QUICK_SESSION_TOTAL if quick else SESSION_TOTAL
    net, homes, txns = _session_workload(total)
    incremental = _run_incremental(net, homes, txns)
    rebuild = _run_rebuild(net, homes, txns)
    speedup = (
        incremental["throughput_txn_s"] / rebuild["throughput_txn_s"]
        if rebuild["throughput_txn_s"] > 0 else 0.0
    )
    block = {
        "workload": {
            "topology": "grid(24)",
            "total_transactions": total,
            "window": WINDOW,
            "epoch_batch": EPOCH_BATCH,
            "object_pool": OBJECT_POOL,
            "objects_per_txn": OBJECTS_PER_TXN,
        },
        "incremental": incremental,
        "rebuild": rebuild,
        "throughput_speedup": speedup,
    }
    if verbose:
        print(
            f"  session/incremental  {incremental['throughput_txn_s']:10.0f}"
            f" txn/s  p99 {incremental['p99_latency_s'] * 1e3:7.2f} ms"
        )
        print(
            f"  session/rebuild      {rebuild['throughput_txn_s']:10.0f}"
            f" txn/s  p99 {rebuild['p99_latency_s'] * 1e3:7.2f} ms"
        )
        print(f"  session speedup      {speedup:10.2f}x")
    return block


def attach_session_results(
    body: Dict[str, Any], block: Dict[str, Any]
) -> Dict[str, Any]:
    """Merge a session block into a harness body (in place, returned).

    Adds per-engine entries under ``results`` (group ``session_rolling``
    keyed by per-epoch latency, so the generic 20%-regression compare
    covers them too) and the full block under ``session``.  The rebuild
    engine is filed as kernel ``reference`` and the incremental engine
    as ``vectorized`` so the group picks up an automatic speedup entry.
    """
    cal = body.get("calibration_s", 1.0) or 1.0
    pairs: Tuple[Tuple[str, str, Dict[str, Any]], ...] = (
        ("session_rolling/incremental", "vectorized", block["incremental"]),
        ("session_rolling/rebuild", "reference", block["rebuild"]),
    )
    meta = dict(block["workload"])
    for name, kernel, metrics in pairs:
        raw = metrics["total_s"] / metrics["epochs"]
        body.setdefault("results", {})[name] = {
            "raw_s": raw,
            "normalized": raw / cal,
            "group": "session_rolling",
            "kernel": kernel,
            "repeats": metrics["epochs"],
            "meta": dict(
                meta,
                throughput_txn_s=metrics["throughput_txn_s"],
                p99_latency_s=metrics["p99_latency_s"],
            ),
        }
    body.setdefault("speedups", {})["session_rolling"] = {
        "reference_s": block["rebuild"]["total_s"],
        "vectorized_s": block["incremental"]["total_s"],
        "speedup": block["throughput_speedup"],
    }
    body["session"] = block
    return body
