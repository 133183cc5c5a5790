"""One-call scheduling facade and the scheduler capability registry.

:func:`schedule` is the library's one-shot entry point: it resolves the
scheduler and runs it on the instance.  ``algo`` reads the network's
:class:`~repro.network.graph.Topology` tag to pick the paper's scheduler
(unknown families fall back to the generic greedy schedule, whose
``O(k * ell * d)`` guarantee of §3.1 holds on any graph).  For rolling
workloads, hold a session open instead (:func:`repro.open_session`).

:data:`SCHEDULER_INFO` mirrors the experiment registry's
``EXPERIMENT_INFO``: one :class:`SchedulerInfo` per algorithm with its
topology family, approximation bound, and capability flags, so the CLI
and docs enumerate schedulers from one place instead of hard-coding the
mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Tuple

import numpy as np

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
    """Static metadata describing one paper scheduler.

    ``topologies`` lists the :class:`~repro.network.graph.Topology` family
    names that auto-dispatch routes to this scheduler; ``bound`` is the
    paper's approximation guarantee (human-readable, for listings);
    ``capabilities`` flags optional constructor features -- ``"rng"``
    (randomized), ``"order"``/``"compact"`` (greedy-family tuning knobs).
    """

    name: str
    topologies: Tuple[str, ...]
    bound: str
    capabilities: frozenset
    factory: Callable[..., Scheduler]

    def make(self, **options) -> Scheduler:
        """Instantiate the scheduler with constructor ``options``."""
        return self.factory(**options)


SCHEDULER_INFO: Mapping[str, SchedulerInfo] = {
    info.name: info
    for info in (
        SchedulerInfo(
            "greedy",
            (),
            "Gamma + 1 = h_max * Delta + 1 colours (§2.3)",
            frozenset({"rng", "order", "compact"}),
            GreedyScheduler,
        ),
        SchedulerInfo(
            "clique",
            ("clique",),
            "O(k): k * ell + 1 (Thm 1)",
            frozenset({"rng", "order", "compact"}),
            CliqueScheduler,
        ),
        SchedulerInfo(
            "diameter",
            ("hypercube", "butterfly", "ddim-grid", "torus"),
            "O(k d): k * ell * d + 1 (§3.1)",
            frozenset({"rng", "order", "compact"}),
            DiameterScheduler,
        ),
        SchedulerInfo(
            "line",
            ("line",),
            "4 * ell (Thm 2)",
            frozenset(),
            LineScheduler,
        ),
        SchedulerInfo(
            "grid",
            ("grid",),
            "O(k log m) w.h.p. (Thm 3)",
            frozenset(),
            GridScheduler,
        ),
        SchedulerInfo(
            "cluster",
            ("cluster",),
            "O(min(k beta, 40^k ln^k m)) (Thm 4)",
            frozenset({"rng"}),
            ClusterScheduler,
        ),
        SchedulerInfo(
            "star",
            ("star",),
            "O(log beta * min(k beta, c^k ln^k m)) (Thm 5)",
            frozenset({"rng"}),
            StarScheduler,
        ),
        SchedulerInfo(
            "sharded",
            ("shard-cluster", "fog-hierarchy"),
            "intra phases in parallel + serial cross-shard phase "
            "(arXiv:2405.15015)",
            frozenset(),
            ShardedScheduler,
        ),
        SchedulerInfo(
            "sharded-cluster",
            (),
            "sharded with Alg-1 randomized cross-phase rounds (w.h.p.)",
            frozenset({"rng"}),
            ShardedClusterScheduler,
        ),
    )
}

# Auto-dispatch routes each topology family to the algorithm its
# TOPOLOGY_INFO registry entry names; SCHEDULER_INFO's `topologies`
# fields must agree (a registry-drift test enforces the consistency in
# both directions).  Unknown families fall back to "greedy" at lookup.
_TOPOLOGY_TO_ALGO = {
    name: info.default_algo for name, info in TOPOLOGY_INFO.items()
}


def resolve_scheduler(
    algo: str = "auto",
    *,
    topology: str | None = None,
    **options,
) -> Scheduler:
    """Instantiate a scheduler by algorithm name or topology family.

    ``algo="auto"`` picks the paper's scheduler for ``topology`` (falling
    back to greedy for unknown families).  Any :data:`SCHEDULER_INFO`
    name, or any name in the wider :func:`~repro.core.scheduler.register`
    registry (baselines included), also works.
    """
    if algo == "auto":
        info = SCHEDULER_INFO[_TOPOLOGY_TO_ALGO.get(topology, "greedy")]
    elif algo in SCHEDULER_INFO:
        info = SCHEDULER_INFO[algo]
    else:
        from .scheduler import get_scheduler

        return get_scheduler(algo, **options)
    return info.make(**options)


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
        an explicit scheduler name -- any :data:`SCHEDULER_INFO` entry or
        registered baseline.
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
