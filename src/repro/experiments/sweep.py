"""Parallel experiment sweeps: shard (experiment, seed) cells across workers.

A sweep is the cross product of experiment ids and seeds.  Each cell runs
``run_experiment`` in its own process with a private
:class:`~repro.obs.recorder.MemoryRecorder`, and ships back a plain-data
result wrapped in the standard versioned JSON envelope
(:func:`repro.io.serialize.json_payload`), so the merge step consumes the
same schema whether the cell ran in-process or across a pipe.

Determinism contract: the merged :class:`SweepReport` is identical for any
``workers`` count.  Cells are seeded only by their ``(experiment, seed)``
pair, results are merged in shard order (``imap`` preserves it regardless
of completion order), and the machine-dependent wall/CPU timings live in a
separate ``profiles`` field that parity comparisons exclude
(:meth:`SweepReport.parity_key`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from multiprocessing import get_context
from typing import Any, Dict, Optional, Sequence, Tuple

from ..analysis.report import report_payload, report_to_json, register_report
from ..cluster.wire import CELL_KIND, decode_message, encode_message
from ..errors import ReproError
from ..obs.recorder import MemoryRecorder, Recorder, active
from .registry import EXPERIMENTS, experiment_ids, run_experiment

__all__ = ["SweepReport", "run_sweep", "sweep_shards"]


@register_report("sweep")
@dataclass(frozen=True)
class SweepReport:
    """Merged outcome of one sweep over ``experiments x seeds``.

    ``cells`` holds the deterministic payloads, one per ``(experiment,
    seed)`` pair in shard order: the experiment's
    :class:`~repro.analysis.tables.Table` as a dict plus the metric
    snapshot its recorder collected.  ``profiles`` holds the per-cell
    wall/CPU phase timings -- machine facts, excluded from parity.
    """

    experiments: Tuple[str, ...]
    seeds: Tuple[int, ...]
    quick: bool
    workers: int
    cells: Tuple[Dict[str, Any], ...]
    profiles: Tuple[Dict[str, Any], ...]

    def parity_key(self) -> Tuple[Dict[str, Any], ...]:
        """The worker-count-independent part of the report."""
        return self.cells

    def as_dict(self) -> Dict[str, Any]:
        """Flat summary for table/JSON embedding."""
        return {
            "experiments": list(self.experiments),
            "seeds": list(self.seeds),
            "quick": self.quick,
            "workers": self.workers,
            "cells": len(self.cells),
            "total_wall_s": round(
                sum(p["wall_s"] for p in self.profiles), 6
            ),
        }

    def to_json(self) -> str:
        """Serialize via the shared report envelope."""
        return report_to_json(self)

    @classmethod
    def from_json(cls, text: str) -> "SweepReport":
        """Reconstruct from :meth:`to_json` output."""
        payload = report_payload(text, expected_kind="sweep")
        payload["experiments"] = tuple(payload["experiments"])
        payload["seeds"] = tuple(payload["seeds"])
        payload["cells"] = tuple(payload["cells"])
        payload["profiles"] = tuple(payload["profiles"])
        return cls(**payload)


def sweep_shards(
    experiments: Sequence[str], seeds: Sequence[int], quick: bool
) -> list:
    """The sweep's work list: one ``(experiment, seed, quick)`` per cell."""
    return [(eid, int(seed), bool(quick)) for eid in experiments for seed in seeds]


def _run_shard(shard: Tuple[str, int, bool]) -> str:
    """Run one cell and return its enveloped JSON result.

    Module-level so multiprocessing can pickle it.  Everything that
    crosses the process boundary is plain JSON -- the same
    ``schema_version``/``kind`` envelope the persistence layer uses.
    """
    eid, seed, quick = shard
    rec = MemoryRecorder(meta={"experiment": eid, "seed": seed, "quick": quick})
    with rec.phase(f"shard:{eid}:s{seed}"):
        table = run_experiment(eid, seed=seed, quick=quick, recorder=rec)
    shard_timing = rec.phases[-1]
    body = {
        "cell": {
            "experiment": eid,
            "seed": seed,
            "table": table.as_dict(),
            "metrics": rec.registry.snapshot(),
        },
        "profile": {
            "experiment": eid,
            "seed": seed,
            "wall_s": shard_timing.wall_s,
            "cpu_s": shard_timing.cpu_s,
            "phases": [asdict(p) for p in rec.phases[:-1]],
        },
    }
    return encode_message(CELL_KIND, body)


def _decode_shard(text: str) -> Dict[str, Any]:
    _, body = decode_message(text, expected_kind=CELL_KIND)
    return body


def run_sweep(
    experiments: Sequence[str],
    seeds: Sequence[int] = (0,),
    quick: bool = False,
    workers: int = 1,
    recorder: Optional[Recorder] = None,
) -> SweepReport:
    """Run every ``(experiment, seed)`` cell, sharded across ``workers``.

    ``workers=1`` runs inline; ``workers>1`` forks a pool (capped at the
    shard count).  The merged report is byte-identical across worker
    counts except for the ``profiles`` timings.  The parent ``recorder``
    gets one ``sweep.cells`` count and a ``sweep.cell_wall_s``
    observation per cell, plus every child counter folded in, so
    sweep-level dashboards see the same totals a serial run would.
    """
    experiments = list(experiments)
    seeds = [int(s) for s in seeds]
    if not experiments:
        raise ReproError("run_sweep(): need at least one experiment id")
    if not seeds:
        raise ReproError("run_sweep(): need at least one seed")
    unknown = [eid for eid in experiments if eid not in EXPERIMENTS]
    if unknown:
        raise ReproError(
            f"unknown experiment ids {unknown}; choose from {experiment_ids()}"
        )
    if workers < 1:
        raise ReproError(f"run_sweep(): workers must be >= 1, got {workers}")

    shards = sweep_shards(experiments, seeds, quick)
    rec = active(recorder)
    with rec.phase("sweep"):
        if workers == 1 or len(shards) == 1:
            results = [_decode_shard(_run_shard(s)) for s in shards]
        else:
            ctx = get_context("fork")
            with ctx.Pool(processes=min(workers, len(shards))) as pool:
                results = [
                    _decode_shard(text)
                    for text in pool.imap(_run_shard, shards)
                ]

    for res in results:
        rec.count("sweep.cells")
        rec.observe("sweep.cell_wall_s", res["profile"]["wall_s"])
        for name, value in res["cell"]["metrics"]["counters"].items():
            rec.count(name, value)

    return SweepReport(
        experiments=tuple(experiments),
        seeds=tuple(seeds),
        quick=bool(quick),
        workers=int(workers),
        cells=tuple(res["cell"] for res in results),
        profiles=tuple(res["profile"] for res in results),
    )
