"""One-call scheduling facade and the scheduler table.

:func:`schedule` is the library's one-shot entry point: it resolves the
scheduler and runs it on the instance.  ``algo="auto"`` follows the
network family's :attr:`~repro.network.registry.TopologyInfo.default_algo`
to the paper's scheduler (unknown families fall back to the generic
greedy schedule, whose ``O(k * ell * d)`` guarantee of §3.1 holds on any
graph).  For rolling workloads, hold a session open instead
(:func:`repro.open_session`).

:data:`SCHEDULER_INFO` is the one name → scheduler table: one
:class:`SchedulerInfo` row per scheduler, paper algorithms and the E9
baselines alike, with its approximation bound and factory.  The service,
sessions, cluster workers, the certifier and the CLI all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from ..baselines.list_scheduler import (
    RandomOrderScheduler,
    SequentialScheduler,
    TSPOrderScheduler,
)
from ..errors import SchedulingError
from ..network.registry import TOPOLOGY_INFO
from .cluster import ClusterScheduler
from .greedy import CliqueScheduler, DiameterScheduler, GreedyScheduler
from .grid import GridScheduler
from .instance import Instance
from .line import LineScheduler
from .schedule import Schedule
from .scheduler import Scheduler
from .sharded import ShardedClusterScheduler, ShardedScheduler
from .star import StarScheduler

__all__ = [
    "SchedulerInfo",
    "SCHEDULER_INFO",
    "schedule",
    "resolve_scheduler",
]


@dataclass(frozen=True)
class SchedulerInfo:
    """One row of the scheduler table.

    ``bound`` is the scheduler's approximation guarantee (human-readable,
    for listings and certificates); ``factory(**options)`` builds the
    scheduler with constructor ``options``.
    """

    name: str
    bound: str
    factory: Callable[..., Scheduler]


SCHEDULER_INFO: Mapping[str, SchedulerInfo] = {
    info.name: info
    for info in (
        SchedulerInfo(
            "greedy",
            "Gamma + 1 = h_max * Delta + 1 colours (§2.3)",
            GreedyScheduler,
        ),
        SchedulerInfo("clique", "O(k): k * ell + 1 (Thm 1)", CliqueScheduler),
        SchedulerInfo(
            "diameter", "O(k d): k * ell * d + 1 (§3.1)", DiameterScheduler
        ),
        SchedulerInfo("line", "4 * ell (Thm 2)", LineScheduler),
        SchedulerInfo("grid", "O(k log m) w.h.p. (Thm 3)", GridScheduler),
        SchedulerInfo(
            "cluster",
            "O(min(k beta, 40^k ln^k m)) (Thm 4)",
            ClusterScheduler,
        ),
        SchedulerInfo(
            "star",
            "O(log beta * min(k beta, c^k ln^k m)) (Thm 5)",
            StarScheduler,
        ),
        SchedulerInfo(
            "sharded",
            "intra phases in parallel + serial cross-shard phase "
            "(arXiv:2405.15015)",
            ShardedScheduler,
        ),
        SchedulerInfo(
            "sharded-cluster",
            "sharded with Alg-1 randomized cross-phase rounds (w.h.p.)",
            ShardedClusterScheduler,
        ),
        SchedulerInfo("sequential", "none (E9 baseline)", SequentialScheduler),
        SchedulerInfo("random-order", "none (E9 baseline)", RandomOrderScheduler),
        SchedulerInfo("tsp-order", "none (E9 baseline)", TSPOrderScheduler),
    )
}


def resolve_scheduler(
    algo: str = "auto",
    *,
    topology: str | None = None,
    **options,
) -> Scheduler:
    """Instantiate a scheduler by :data:`SCHEDULER_INFO` name or by family.

    ``algo="auto"`` picks ``TOPOLOGY_INFO[topology].default_algo``,
    falling back to greedy for an unknown family; any other name must be
    a :data:`SCHEDULER_INFO` key.  ``options`` go to the constructor.
    """
    if algo == "auto":
        family = TOPOLOGY_INFO.get(topology)
        algo = family.default_algo if family is not None else "greedy"
    try:
        row = SCHEDULER_INFO[algo]
    except KeyError:
        raise SchedulingError(
            f"unknown scheduler {algo!r}; available: {sorted(SCHEDULER_INFO)}"
        ) from None
    return row.factory(**options)


def schedule(
    instance: Instance,
    network=None,
    *,
    algo: str = "auto",
    rng: np.random.Generator | None = None,
    **options,
) -> Schedule:
    """Schedule ``instance`` with one call: ``repro.schedule(inst)``.

    Equivalent to ``resolve_scheduler(algo, topology=...,
    **options).schedule(instance, rng)``.

    Parameters
    ----------
    instance:
        The problem to schedule (its network determines auto-dispatch).
    network:
        Optional sanity handle: if given, it must be ``instance.network``
        (instances are bound to their network at construction; rebuild
        the instance to change topology).
    algo:
        ``"auto"`` (topology-appropriate paper scheduler, the default) or
        an explicit :data:`SCHEDULER_INFO` name, baselines included.
    rng:
        Randomness source for randomized schedulers.
    options:
        Extra keyword arguments for the scheduler's constructor
        (e.g. ``order="degree"`` for the greedy family).
    """
    if network is not None and network is not instance.network:
        raise SchedulingError(
            "schedule(): `network` must be the instance's own network; "
            "rebuild the Instance to schedule on a different topology"
        )
    scheduler = resolve_scheduler(
        algo, topology=instance.network.topology.name, **options
    )
    return scheduler.schedule(instance, rng)
