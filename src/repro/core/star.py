"""Star graph scheduler (§7, Theorem 5, Fig 4).

Each of the ``alpha`` rays is split into ``eta = ceil(log2 beta)`` segments
of exponentially growing length: segment ``i`` holds the ray nodes at
distance ``2^{i-1} .. 2^i - 1`` from the center.  After the center's own
transaction commits, the schedule runs one *period* per segment index; in
period ``i`` the ring ``V_i`` (segment ``i`` of every ray) is scheduled by
treating segments as clusters that communicate through the center over
paths of length ``~2^i``:

* a greedy schedule over ``V_i`` (the Approach-1 analogue,
  ``O(k sigma_i 2^{2i})`` time), and
* the randomized activation-round protocol with segment groups and a
  travel budget covering the through-center trips (the Approach-2
  analogue, ``O(sigma_i 2^i c^k ln^k m)`` w.h.p.);

whichever finishes the period earlier is kept, yielding Theorem 5's
``O(log beta * min(k beta, c^k ln^k m))`` factor overall.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from ..errors import TopologyError
from .greedy import GreedyScheduler
from .instance import Instance
from .phasing import PhaseState, run_phase
from .rounds import RoundGroup, activation_rounds
from .schedule import Schedule
from .scheduler import Scheduler

__all__ = ["StarScheduler", "ray_segments"]


def ray_segments(beta: int) -> list[tuple[int, int]]:
    """Segment index ranges over ray positions ``0..beta-1``.

    Returns ``(start, stop)`` half-open position ranges; segment ``i``
    (1-based) covers ray depths ``2^{i-1} .. 2^i - 1`` (paper numbering),
    i.e. 0-based positions ``2^{i-1} - 1 .. 2^i - 2``, truncated at beta.
    """
    segments = []
    i = 1
    while (1 << (i - 1)) <= beta:
        start = (1 << (i - 1)) - 1
        stop = min((1 << i) - 1, beta)
        if start < stop:
            segments.append((start, stop))
        i += 1
    return segments


class StarScheduler(Scheduler):
    """Theorem 5 scheduler: per-ring periods with cluster-style scheduling."""

    name = "star"

    def __init__(self, max_rounds_per_phase: int = 10_000) -> None:
        self.max_rounds_per_phase = max_rounds_per_phase

    def schedule(
        self, instance: Instance, rng: np.random.Generator | None = None
    ) -> Schedule:
        net = instance.network
        if net.topology.name != "star":
            raise TopologyError(
                f"StarScheduler needs a 'star' network, got {net.topology.name!r}"
            )
        if rng is None:
            rng = np.random.default_rng(0)
        topo = net.topology
        beta = topo.require("beta")
        center = topo.require("center")
        rays = topo.require("rays")

        state = PhaseState(instance)
        period_choices: List[str] = []

        center_txn = instance.transaction_at(center)
        if center_txn is not None:
            run_phase(state, [center_txn.tid], GreedyScheduler())

        for seg_idx, (start, stop) in enumerate(ray_segments(beta), start=1):
            groups = []
            tids: list[int] = []
            for ray_id, ray_nodes in enumerate(rays):
                seg_nodes = tuple(ray_nodes[start:stop])
                if not seg_nodes:
                    continue
                groups.append(RoundGroup(gid=ray_id, nodes=seg_nodes))
                for node in seg_nodes:
                    t = instance.transaction_at(node)
                    if t is not None:
                        tids.append(t.tid)
            if not tids:
                continue
            greedy_end, greedy_commits, greedy_pos = self._try_greedy(
                state, tids
            )
            rounds_end, rounds_commits, rounds_pos = self._try_rounds(
                state, tids, groups, rng, instance
            )
            if greedy_end <= rounds_end:
                period_choices.append(f"V{seg_idx}:greedy")
                state.commits.update(greedy_commits)
                state.positions = greedy_pos
                state.time = greedy_end
            else:
                period_choices.append(f"V{seg_idx}:rounds")
                state.commits.update(rounds_commits)
                state.positions = rounds_pos
                state.time = rounds_end

        meta = {
            "scheduler": self.name,
            "eta": len(ray_segments(beta)),
            "period_choices": tuple(period_choices),
        }
        return state.finish(meta)

    # ------------------------------------------------------------------ #

    def _try_greedy(
        self, state: PhaseState, tids: list[int]
    ) -> tuple[int, Dict[int, int], Dict[int, int]]:
        trial = PhaseState(state.instance)
        trial.time = state.time
        trial.positions = dict(state.positions)
        trial.commits = dict(state.commits)
        run_phase(trial, tids, GreedyScheduler())
        new_commits = {
            t: c for t, c in trial.commits.items() if t not in state.commits
        }
        return trial.time, new_commits, trial.positions

    def _try_rounds(
        self,
        state: PhaseState,
        tids: list[int],
        groups: list[RoundGroup],
        rng: np.random.Generator,
        instance: Instance,
    ) -> tuple[int, Dict[int, int], Dict[int, int]]:
        dist = instance.network.dist
        ring_nodes = [n for g in groups for n in g.nodes]
        used_objects = {
            o for tid in tids for o in instance.transaction(tid).objects
        }
        sources = {state.positions[o] for o in used_objects} | set(ring_nodes)
        travel = 1
        for s in sources:
            for v in ring_nodes:
                d = dist(s, v)
                if d > travel:
                    travel = d
        result = activation_rounds(
            instance,
            tids=tids,
            positions=state.positions,
            start_time=state.time,
            groups=groups,
            travel=travel,
            rng=rng,
            max_rounds_per_phase=self.max_rounds_per_phase,
        )
        positions = dict(state.positions)
        positions.update(result.positions)
        return result.end_time, result.commits, positions

    # ------------------------------------------------------------------ #

    @staticmethod
    def theorem_ratio(instance: Instance) -> float:
        """Theorem 5's factor shape ``log(beta) * min(k beta, 40^k ln^k m)``."""
        topo = instance.network.topology
        beta = topo.require("beta")
        k = max(instance.max_k, 1)
        m = instance.paper_m
        lnm = max(math.log(max(m, 3)), 1.0)
        return max(math.log2(max(beta, 2)), 1.0) * min(
            k * beta, (40.0 ** k) * (lnm ** k)
        )
