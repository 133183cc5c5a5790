"""Evaluation metrics: run a scheduler on an instance, measure everything.

:func:`evaluate` is the single code path every experiment and benchmark
uses: schedule, statically validate, execute in the simulator (end-to-end
cross-check), and report makespan, the certified lower bound, the
approximation-ratio *upper bound* ``makespan / lower_bound`` (an upper
bound because OPT >= lower_bound), and communication cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..bounds.lower import makespan_lower_bound, object_report
from ..core.instance import Instance
from ..core.schedule import Schedule
from ..core.scheduler import Scheduler
from ..obs.recorder import Recorder, active
from ..sim.engine import execute
from .report import register_report, report_payload, report_to_json

__all__ = ["Evaluation", "evaluate"]


@register_report("evaluation")
@dataclass(frozen=True)
class Evaluation:
    """One scheduler-on-instance measurement."""

    scheduler: str
    makespan: int
    lower_bound: int
    communication_cost: int
    max_in_flight: int
    runtime_s: float
    meta: dict

    @property
    def ratio(self) -> float:
        """``makespan / lower_bound``: an upper bound on the true approximation ratio."""
        return self.makespan / self.lower_bound

    def as_dict(self) -> dict[str, object]:
        """Flat dict for table rendering."""
        return {
            "scheduler": self.scheduler,
            "makespan": self.makespan,
            "lower_bound": self.lower_bound,
            "ratio": round(self.ratio, 3),
            "comm_cost": self.communication_cost,
            "runtime_s": round(self.runtime_s, 4),
        }

    def to_json(self) -> str:
        """Full-fidelity JSON envelope (see :mod:`repro.analysis.report`)."""
        return report_to_json(self)

    @classmethod
    def from_json(cls, text: str) -> "Evaluation":
        """Inverse of :meth:`to_json`."""
        payload = report_payload(text, expected_kind="evaluation")
        return cls(
            scheduler=str(payload["scheduler"]),
            makespan=int(payload["makespan"]),
            lower_bound=int(payload["lower_bound"]),
            communication_cost=int(payload["communication_cost"]),
            max_in_flight=int(payload["max_in_flight"]),
            runtime_s=float(payload["runtime_s"]),
            meta=dict(payload["meta"]),
        )


def evaluate(
    scheduler: Scheduler,
    instance: Instance,
    rng: np.random.Generator | None = None,
    lower_bound: int | None = None,
    simulate: bool = True,
    recorder: Recorder | None = None,
) -> Evaluation:
    """Schedule, validate, simulate, and measure ``instance``.

    ``lower_bound`` may be supplied to avoid recomputing it when several
    schedulers are evaluated on the same instance.  ``recorder`` is an
    optional :class:`~repro.obs.Recorder`: the scheduling pass runs under
    a ``schedule`` phase timer and the simulation under the engine's
    ``route``/``execute`` timers, so one recording spans the whole
    schedule -> route -> execute pipeline.  Recording never changes the
    measured result.
    """
    rec = active(recorder)
    t0 = time.perf_counter()
    with rec.phase("schedule"):
        schedule: Schedule = scheduler.schedule(instance, rng)
    runtime = time.perf_counter() - t0
    schedule.validate()
    if lower_bound is None:
        lower_bound = makespan_lower_bound(instance, object_report(instance))
    max_in_flight = 0
    if simulate:
        trace = execute(schedule, record_commits=False, recorder=recorder)
        max_in_flight = trace.max_in_flight
        comm = trace.total_distance
    else:
        comm = schedule.communication_cost
    if rec.enabled:
        rec.count("eval.runs")
        rec.gauge("eval.makespan", schedule.makespan)
        rec.gauge("eval.lower_bound", max(lower_bound, 1))
        rec.observe("eval.ratio", schedule.makespan / max(lower_bound, 1))
    return Evaluation(
        scheduler=scheduler.name,
        makespan=schedule.makespan,
        lower_bound=max(lower_bound, 1),
        communication_cost=comm,
        max_in_flight=max_in_flight,
        runtime_s=runtime,
        meta=dict(schedule.meta),
    )
