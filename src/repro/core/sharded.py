"""Sharded scheduler: parallel intra-shard phases + a serial cross phase.

The blockchain-sharding recast of the paper's model (Adhikari/Busch/
Popovic, arXiv:2405.15015) splits transactions by their objects' *home
shards*:

* **intra-shard** -- every object is homed in one shard.  Since each
  object lives in exactly one shard, the intra groups of different
  shards are conflict-disjoint, so each shard's group is greedy-coloured
  independently and *all shards run in parallel* starting at ``t = 0``;
  the intra phase ends at the slowest shard's makespan.
* **cross-shard** -- objects homed in >= 2 shards, so the transaction
  necessarily pays inter-shard (``gamma``-weight) itinerary legs.  The
  cross phase starts after the intra phase and is serialised by a
  cluster-greedy pass over the objects' *current* positions (wherever
  the intra phase left them) -- the same phase-composition argument as
  :mod:`repro.core.phasing`: the sub-schedule's positioning offset
  covers every first leg, and phase disjointness gives the inter-phase
  legs at least that much slack.

:class:`ShardedScheduler` (named ``sharded``) runs the cross phase
as a deterministic greedy colouring; :class:`ShardedClusterScheduler`
(named ``sharded-cluster``) instead drives the cross phase through
the §6 randomized activation-round protocol with the shards as the
round groups -- the Algorithm 1 analogue for cross-shard commits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..network.graph import Network
from ..network.sharding import node_shards, shard_members
from .greedy import GreedyScheduler
from .instance import Instance
from .phasing import last_user_positions
from .rounds import RoundGroup, activation_rounds
from .schedule import Schedule
from .scheduler import Scheduler

__all__ = [
    "ShardSplit",
    "shard_split",
    "cross_shard_ratio",
    "ShardedScheduler",
    "ShardedClusterScheduler",
]


@dataclass(frozen=True)
class ShardSplit:
    """Intra/cross classification of one instance's transactions.

    ``intra`` maps shard index to the (ascending) tids whose objects are
    all homed in that shard; ``cross`` lists the tids touching objects
    homed in >= 2 shards.  A transaction with no objects is intra to its
    host node's shard (it conflicts with nothing).
    """

    intra: Tuple[Tuple[int, Tuple[int, ...]], ...]
    cross: Tuple[int, ...] = field(default_factory=tuple)

    @property
    def intra_count(self) -> int:
        """Total intra-shard transactions across all shards."""
        return sum(len(tids) for _, tids in self.intra)

    @property
    def cross_count(self) -> int:
        """Cross-shard transactions."""
        return len(self.cross)


def shard_split(instance: Instance) -> ShardSplit:
    """Classify ``instance``'s transactions as intra- vs cross-shard.

    A transaction is **cross-shard** iff its objects' homes span >= 2
    shards of the network's shard partition; otherwise it is intra to
    the single shard homing all its objects (its host node's shard when
    it touches no objects).  Requires a sharded topology family (see
    :func:`~repro.network.sharding.shard_members`).
    """
    shard_of = node_shards(instance.network)
    intra: Dict[int, List[int]] = {}
    cross: List[int] = []
    for t in instance.transactions:
        home_shards = {shard_of[instance.home(o)] for o in t.objects}
        if len(home_shards) >= 2:
            cross.append(t.tid)
        else:
            sid = home_shards.pop() if home_shards else shard_of[t.node]
            intra.setdefault(sid, []).append(t.tid)
    return ShardSplit(
        intra=tuple(
            (sid, tuple(intra[sid])) for sid in sorted(intra)
        ),
        cross=tuple(cross),
    )


def cross_shard_ratio(instance: Instance) -> float:
    """Fraction of transactions classified cross-shard (0.0 when empty)."""
    split = shard_split(instance)
    total = split.intra_count + split.cross_count
    return split.cross_count / total if total else 0.0


class ShardedScheduler(Scheduler):
    """Two-phase sharded scheduler (arXiv:2405.15015 style).

    Its cross phase is a deterministic cluster-greedy colouring over the
    post-intra object positions; :class:`ShardedClusterScheduler` runs
    the §6 randomized activation rounds there instead.
    """

    name = "sharded"
    cross_mode = "greedy"

    # ------------------------------------------------------------------ #

    def schedule(
        self, instance: Instance, rng: np.random.Generator | None = None
    ) -> Schedule:
        net: Network = instance.network
        members = shard_members(net)  # TopologyError on unsharded families
        split = shard_split(instance)
        greedy = GreedyScheduler()

        commits: Dict[int, int] = {}
        positions = dict(instance.object_homes)
        per_shard: List[Tuple[int, int]] = []
        intra_end = 0
        for sid, tids in split.intra:
            sub_sched = greedy.schedule(instance.restrict(tids))
            commits.update(sub_sched.commit_times)
            last_user_positions(sub_sched, positions)
            per_shard.append((sid, sub_sched.makespan))
            intra_end = max(intra_end, sub_sched.makespan)

        cross_end = 0
        cross_meta: Dict[str, object] = {}
        if split.cross:
            cross_end, cross_meta = self._cross_phase(
                instance, list(split.cross), positions, intra_end, rng,
                commits,
            )

        total = split.intra_count + split.cross_count
        meta: Dict[str, object] = {
            "scheduler": self.name,
            "cross_mode": self.cross_mode,
            "shards": len(members),
            "intra": split.intra_count,
            "cross": split.cross_count,
            "cross_ratio": split.cross_count / total if total else 0.0,
            "intra_makespan": intra_end,
            "cross_makespan": cross_end,
            "per_shard_makespans": tuple(per_shard),
        }
        meta.update(cross_meta)
        return Schedule(instance, commits, meta)

    def _cross_phase(
        self, instance: Instance, tids: List[int], positions: Dict[int, int],
        start: int, rng: np.random.Generator | None, commits: Dict[int, int],
    ) -> Tuple[int, Dict[str, object]]:
        """Commit ``tids`` into ``commits`` from ``start``, with the objects
        at ``positions``; return the phase's length and its meta."""
        cross_sched = GreedyScheduler().schedule(
            instance.restrict(tids, positions))
        for tid, ct in cross_sched.commit_times.items():
            commits[tid] = start + ct
        return cross_sched.makespan, {}


class ShardedClusterScheduler(ShardedScheduler):
    """Sharded scheduler whose cross phase runs Algorithm-1 rounds.

    Identical intra phase; the cross-shard phase is serialised by the
    §6 randomized activation-round protocol with the shard committees
    as the round groups (round duration budgets the network diameter,
    covering any inter-shard leg).  ``ln_factor`` and
    ``max_rounds_per_phase`` are the round protocol's knobs.
    """

    name = "sharded-cluster"
    cross_mode = "rounds"

    def __init__(
        self, ln_factor: float = 24.0, max_rounds_per_phase: int = 10_000
    ) -> None:
        self.ln_factor = ln_factor
        self.max_rounds_per_phase = max_rounds_per_phase

    def _cross_phase(
        self, instance: Instance, tids: List[int], positions: Dict[int, int],
        start: int, rng: np.random.Generator | None, commits: Dict[int, int],
    ) -> Tuple[int, Dict[str, object]]:
        groups = [
            RoundGroup(gid=i, nodes=tuple(m))
            for i, m in enumerate(shard_members(instance.network))
        ]
        result = activation_rounds(
            instance,
            tids=tids,
            positions=positions,
            start_time=start,
            groups=groups,
            travel=instance.network.diameter(),
            rng=rng if rng is not None else np.random.default_rng(0),
            max_rounds_per_phase=self.max_rounds_per_phase,
            ln_factor=self.ln_factor,
        )
        commits.update(result.commits)
        return result.end_time - start, {
            "psi": result.psi,
            "rounds_used": result.rounds_used,
            "round_duration": result.round_duration,
            "fallback_count": result.fallback_count,
        }
