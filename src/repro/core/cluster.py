"""Cluster graph scheduler (§6, Theorem 4, Algorithm 1, Fig 3).

The cluster graph is ``alpha`` cliques of ``beta`` nodes whose designated
bridge nodes form a complete graph with edge weight ``gamma >= beta``.
With ``sigma`` the maximum number of clusters any object must visit:

* ``sigma == 1``: every object is cluster-local; the basic greedy schedule
  colours each cluster independently and all clusters run in parallel --
  an ``O(k)`` approximation, as in Theorem 1.
* **Approach 1** (greedy on the whole graph): ``O(k * beta)`` factor
  (Lemma 6: makespan ``O(k sigma beta gamma)`` vs the ``Omega(sigma gamma)``
  lower bound).
* **Approach 2** (Algorithm 1): clusters are randomly assigned to
  ``ceil(sigma / (24 ln m))`` phases; within a phase, rounds of duration
  ``beta + gamma + 2`` let each object activate in a random requesting
  cluster, enabling and executing transactions -- an
  ``O(40^k ln^k m)`` factor w.h.p. (Lemma 9).

``approach="auto"`` (the default) computes both and keeps the better
schedule, realizing Theorem 4's ``O(min(k beta, 40^k ln^k m))``.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import TopologyError
from .greedy import GreedyScheduler
from .instance import Instance
from .rounds import RoundGroup, activation_rounds, theoretical_zeta
from .schedule import Schedule
from .scheduler import Scheduler

__all__ = ["ClusterScheduler", "object_cluster_spread"]


def object_cluster_spread(instance: Instance) -> int:
    """``sigma``: the maximum number of clusters any object is requested in."""
    topo = instance.network.topology
    clusters = topo.require("clusters")
    cluster_of = {}
    for idx, members in enumerate(clusters):
        for node in members:
            cluster_of[node] = idx
    sigma = 0
    for obj in instance.objects:
        spread = {cluster_of[t.node] for t in instance.users(obj)}
        sigma = max(sigma, len(spread))
    return sigma


class ClusterScheduler(Scheduler):
    """Theorem 4 scheduler for cluster graphs.

    Parameters
    ----------
    approach:
        ``"auto"`` (default, take the better of both), ``1`` (plain
        greedy), or ``2`` (Algorithm 1's randomized phases/rounds).
    ln_factor:
        The phase-count constant (24 in the paper; E10 ablates it).
    max_rounds_per_phase:
        Safety cap before the deterministic tail takes over.
    """

    name = "cluster"

    def __init__(
        self,
        approach: str | int = "auto",
        ln_factor: float = 24.0,
        max_rounds_per_phase: int = 10_000,
    ) -> None:
        if approach not in ("auto", 1, 2):
            raise ValueError(f"approach must be 'auto', 1 or 2, got {approach!r}")
        self.approach = approach
        self.ln_factor = ln_factor
        self.max_rounds_per_phase = max_rounds_per_phase

    # ------------------------------------------------------------------ #

    def schedule(
        self, instance: Instance, rng: np.random.Generator | None = None
    ) -> Schedule:
        net = instance.network
        # any cluster-family network qualifies: the §6 graph itself or a
        # sharded variant carrying the same clusters/bridges/gamma metadata
        # (e.g. shard-cluster, which is a cluster graph with shard semantics)
        if "clusters" not in net.topology.params:
            raise TopologyError(
                f"ClusterScheduler needs a 'cluster' network, got "
                f"{net.topology.name!r}"
            )
        if rng is None:
            rng = np.random.default_rng(0)
        sigma = object_cluster_spread(instance)

        if self.approach == 1 or sigma <= 1:
            return self._approach1(instance, sigma)
        if self.approach == 2:
            return self._approach2(instance, rng, sigma)
        s1 = self._approach1(instance, sigma)
        s2 = self._approach2(instance, rng, sigma)
        best = s1 if s1.makespan <= s2.makespan else s2
        best.meta["auto_choice"] = best.meta["approach"]
        best.meta["approach1_makespan"] = s1.makespan
        best.meta["approach2_makespan"] = s2.makespan
        return best

    def _approach1(self, instance: Instance, sigma: int) -> Schedule:
        sched = GreedyScheduler().schedule(instance)
        sched.meta.update(
            {"scheduler": self.name, "approach": 1, "sigma": sigma}
        )
        return sched

    def _approach2(
        self, instance: Instance, rng: np.random.Generator, sigma: int
    ) -> Schedule:
        topo = instance.network.topology
        clusters = topo.require("clusters")
        gamma = topo.require("gamma")
        groups = [
            RoundGroup(gid=i, nodes=tuple(members))
            for i, members in enumerate(clusters)
        ]
        # gamma + 2 covers any node -> bridge -> bridge -> node trip, which
        # is the cluster graph's diameter, so it bounds every object leg.
        travel = gamma + 2
        result = activation_rounds(
            instance,
            tids=[t.tid for t in instance.transactions],
            positions=instance.object_homes,
            start_time=0,
            groups=groups,
            travel=travel,
            rng=rng,
            max_rounds_per_phase=self.max_rounds_per_phase,
            ln_factor=self.ln_factor,
        )
        meta = {
            "scheduler": self.name,
            "approach": 2,
            "sigma": sigma,
            "psi": result.psi,
            "rounds_used": result.rounds_used,
            "round_duration": result.round_duration,
            "fallback_count": result.fallback_count,
            "theoretical_zeta": theoretical_zeta(
                instance.max_k, instance.paper_m
            ),
        }
        return Schedule(instance, result.commits, meta)

    # ------------------------------------------------------------------ #

    @staticmethod
    def theorem_ratio(instance: Instance) -> float:
        """Theorem 4's factor shape ``min(k beta, 40^k ln^k m)``."""
        topo = instance.network.topology
        beta = topo.require("beta")
        k = max(instance.max_k, 1)
        m = instance.paper_m
        lnm = max(math.log(max(m, 3)), 1.0)
        return min(k * beta, (40.0 ** k) * (lnm ** k))
