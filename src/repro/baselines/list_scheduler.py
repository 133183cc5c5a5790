"""Priority list scheduling: the baseline family (E9).

A list scheduler processes transactions in a fixed priority order and
commits each as early as its objects allow: a transaction's commit time is
the maximum, over its objects, of *(the object's release time at its
previous user, plus the travel distance to this transaction)*.  Commit
times are feasible by construction -- consecutive users of an object are
spaced by at least their distance -- so any priority order yields a valid
schedule, and the order is the entire policy:

* :class:`SequentialScheduler` additionally serializes *all* transactions
  (at most one commit per step), modelling a global-lock/serialization-
  lease distributed TM (the related-work designs of [2, 9, 24]);
* :class:`RandomOrderScheduler` uses a uniformly random priority;
* :class:`TSPOrderScheduler` prioritizes by position on a heuristic TSP
  tour of the hottest object's requesters (the communication-cost-first
  strategy of Zhang et al. [37], which Busch et al. [3] prove cannot also
  optimize execution time).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..bounds.walks import nearest_neighbor_path, two_opt_path
from ..core.instance import Instance
from ..core.schedule import Schedule
from ..core.scheduler import Scheduler

__all__ = [
    "ListScheduler",
    "SequentialScheduler",
    "RandomOrderScheduler",
    "TSPOrderScheduler",
]


class ListScheduler(Scheduler):
    """Greedy list scheduling over a transaction priority order."""

    name = "list"

    #: When True, at most one transaction commits per time step (global lock).
    serialize: bool = False

    def priority(
        self, instance: Instance, rng: np.random.Generator | None
    ) -> List[int]:
        """Transaction ids in processing order; subclasses override."""
        return [t.tid for t in instance.transactions]

    def schedule(
        self, instance: Instance, rng: np.random.Generator | None = None
    ) -> Schedule:
        dist = instance.network.dist
        release: Dict[int, int] = {}  # object -> time it can leave its position
        position: Dict[int, int] = dict(instance.object_homes)
        commits: Dict[int, int] = {}
        last_commit = 0
        for tid in self.priority(instance, rng):
            t = instance.transaction(tid)
            ct = 1
            for obj in t.objects:
                ready = release.get(obj, 0) + dist(position[obj], t.node)
                ct = max(ct, ready)
            if self.serialize:
                ct = max(ct, last_commit + 1)
            commits[tid] = ct
            last_commit = max(last_commit, ct)
            for obj in t.objects:
                release[obj] = ct
                position[obj] = t.node
        meta = {"scheduler": self.name, "serialize": self.serialize}
        return Schedule(instance, commits, meta)


class SequentialScheduler(ListScheduler):
    """One commit per step, id order: the global-serialization baseline."""

    name = "sequential"

    serialize = True


class RandomOrderScheduler(ListScheduler):
    """List scheduling with a uniformly random priority order."""

    name = "random-order"

    def priority(
        self, instance: Instance, rng: np.random.Generator | None
    ) -> List[int]:
        if rng is None:
            rng = np.random.default_rng(0)
        tids = np.asarray([t.tid for t in instance.transactions])
        return [int(x) for x in rng.permutation(tids)]


class TSPOrderScheduler(ListScheduler):
    """Prioritize by position on the hottest object's heuristic TSP walk.

    The walk starts at the hottest object's home and visits all its
    requesters (nearest-neighbour + 2-opt); transactions not on the walk
    keep id order after the walk's members.  This mimics schedulers that
    chase the communication-cost (TSP) objective.
    """

    name = "tsp-order"

    def priority(
        self, instance: Instance, rng: np.random.Generator | None
    ) -> List[int]:
        hot = max(instance.objects, key=lambda o: (instance.load(o), -o))
        users = sorted(instance.users(hot), key=lambda t: t.tid)
        if len(users) <= 1:
            return [t.tid for t in instance.transactions]
        nodes = [instance.home(hot)] + [t.node for t in users]
        idx = np.asarray(nodes, dtype=np.intp)
        sub = instance.network.distance_matrix[np.ix_(idx, idx)]
        order = two_opt_path(sub, nearest_neighbor_path(sub, 0))
        ranked: List[int] = []
        for pos in order:
            if pos == 0:
                continue  # the home placeholder
            ranked.append(users[pos - 1].tid)
        seen = set(ranked)
        ranked.extend(
            t.tid for t in instance.transactions if t.tid not in seen
        )
        return ranked
