"""Grid scheduler (§5, Theorem 3, Fig 2).

For random k-subset workloads on an ``n x n`` mesh the algorithm cuts the
grid into subgrids of side ``sqrt(xi)`` with ``xi = 27 * w * ln(m) / k``
(sized so each object is requested by ``Theta(log m)`` transactions per
subgrid w.h.p.), then executes the subgrids **one at a time** in
boustrophedon column-major order, running the basic greedy schedule inside
each subgrid and moving objects to their next subgrid between internal
schedules.  Theorem 3: ``O(k log m)``-approximate w.h.p.

Implementation notes:

* each subgrid phase is composed with :mod:`repro.core.phasing`, which
  handles the object hand-off (the greedy sub-schedule's positioning
  offset plays the role of the paper's transition period, using measured
  distances instead of the analytic ``3 * sqrt(xi)`` bound);
* if ``sqrt(xi) >= n`` there is a single subgrid and the algorithm
  degenerates to plain greedy on the whole grid, exactly as in the paper's
  ``xi > n^2 / 9`` case; the scheduler then runs greedy on the instance
  directly, with no phase composition around it.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from ..errors import TopologyError
from .greedy import GreedyScheduler
from .instance import Instance
from .phasing import PhaseState, run_phase
from .schedule import Schedule
from .scheduler import Scheduler

__all__ = ["GridScheduler"]


class GridScheduler(Scheduler):
    """Boustrophedon subgrid sweep with greedy internal schedules.

    Parameters
    ----------
    xi_factor:
        The constant in ``xi = xi_factor * w * ln(m) / k`` (27 in the
        paper; exposed for the E10 ablation).
    side:
        Explicit subgrid side override (wins over ``xi_factor``); used by
        tests and the ablation bench.
    """

    name = "grid"

    def __init__(
        self, xi_factor: float = 27.0, side: int | None = None
    ) -> None:
        self.xi_factor = xi_factor
        self.side = side

    def subgrid_side(self, instance: Instance) -> int:
        """Side length ``sqrt(xi)`` (clamped to ``[1, max(rows, cols)]``)."""
        if self.side is not None:
            return max(1, self.side)
        w = max(instance.num_objects, 1)
        k = max(instance.max_k, 1)
        m = instance.paper_m
        xi = self.xi_factor * w * max(math.log(max(m, 3)), 1.0) / k
        topo = instance.network.topology
        rows, cols = topo.require("rows"), topo.require("cols")
        return min(max(1, math.ceil(math.sqrt(xi))), max(rows, cols))

    def schedule(
        self, instance: Instance, rng: np.random.Generator | None = None
    ) -> Schedule:
        net = instance.network
        if net.topology.name != "grid":
            raise TopologyError(
                f"GridScheduler needs a 'grid' network, got {net.topology.name!r}"
            )
        rows = net.topology.require("rows")
        cols = net.topology.require("cols")
        side = self.subgrid_side(instance)

        sub_rows = -(-rows // side)
        sub_cols = -(-cols // side)

        if sub_rows * sub_cols == 1:
            # one subgrid: its single phase is greedy on the whole
            # instance, so skip the phase composition around it
            sched = GreedyScheduler().schedule(instance)
            sched.meta = {
                "scheduler": self.name,
                "side": side,
                "subgrids": 1,
                "subgrids_executed": 1,
                "max_internal_span": sched.makespan,
            }
            return sched

        # boustrophedon column-major subgrid order (Fig 2)
        order: List[tuple[int, int]] = []
        for j in range(sub_cols):
            col = range(sub_rows) if j % 2 == 0 else range(sub_rows - 1, -1, -1)
            order.extend((i, j) for i in col)

        # transactions per subgrid
        members: Dict[tuple[int, int], list[int]] = {}
        for t in instance.transactions:
            r, c = divmod(t.node, cols)
            members.setdefault((r // side, c // side), []).append(t.tid)

        state = PhaseState(instance)
        inner = GreedyScheduler()
        internal_spans: list[int] = []
        for key in order:
            tids = members.get(key)
            if not tids:
                continue
            sub_schedule = run_phase(state, tids, inner)
            if sub_schedule is not None:
                internal_spans.append(sub_schedule.makespan)

        meta = {
            "scheduler": self.name,
            "side": side,
            "subgrids": sub_rows * sub_cols,
            "subgrids_executed": len(internal_spans),
            "max_internal_span": max(internal_spans, default=0),
        }
        return state.finish(meta)

    @staticmethod
    def theorem_ratio(instance: Instance) -> float:
        """Theorem 3's approximation-factor shape, ``k * ln(m)``.

        Benches divide measured ratios by this to check the w.h.p. claim
        (a bounded constant across the sweep).
        """
        k = max(instance.max_k, 1)
        m = instance.paper_m
        return k * max(math.log(max(m, 3)), 1.0)
