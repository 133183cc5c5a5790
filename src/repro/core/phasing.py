"""Sequential phase composition for multi-stage schedulers.

The Grid (§5) and Star (§7) algorithms run a sequence of *phases*: each
phase schedules a subset of the transactions, using the objects' *current*
positions (wherever the previous phase left them) as effective homes, then
hands the updated positions to the next phase.

Feasibility composes: the sub-schedule's own positioning offset guarantees
every first leg from the current position fits, and because phases are
disjoint in time (each starts after the previous finished), an object's
inter-phase leg has at least as much slack as the sub-schedule's first leg.
"""

from __future__ import annotations

from typing import Dict, Mapping, MutableMapping, Sequence

from .instance import Instance
from .schedule import Schedule
from .scheduler import Scheduler

__all__ = ["PhaseState", "run_phase", "last_user_positions"]


class PhaseState:
    """Mutable cursor threaded through a phased schedule.

    Attributes
    ----------
    time:
        First time step available to the next phase (0 initially).
    positions:
        Current node of every object (homes initially).
    commits:
        Accumulated absolute commit times.
    """

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self.time: int = 0
        self.positions: Dict[int, int] = dict(instance.object_homes)
        self.commits: Dict[int, int] = {}

    def finish(self, meta: Mapping[str, object] | None = None) -> Schedule:
        """Wrap the accumulated commits into a validated-shape Schedule."""
        return Schedule(self.instance, self.commits, meta)


def last_user_positions(
    sub_schedule: Schedule, positions: MutableMapping[int, int]
) -> None:
    """Update ``positions`` to each object's final node under ``sub_schedule``.

    An object ends at its last user by ``(commit time, node)``, the last
    stop of its :meth:`~repro.core.schedule.Schedule.itinerary` (a node
    hosts one transaction, so no tid tie-break is needed); objects the
    sub-schedule never used keep their previous position.
    """
    inc = sub_schedule.instance.incidence
    time = inc.per_txn(sub_schedule.commit_times)
    last = inc.first_users(-time, -inc.nodes)
    positions.update(zip(inc.objects.tolist(), inc.nodes[last].tolist()))


def run_phase(
    state: PhaseState,
    tids: Sequence[int],
    scheduler: Scheduler,
    rng=None,
) -> Schedule | None:
    """Schedule ``tids`` as one phase, advancing ``state``.

    Builds the restricted sub-instance with the current object positions as
    homes, runs ``scheduler`` on it, shifts the resulting commit times by
    the phase start, and advances the time cursor by the phase makespan.
    Returns the (relative-time) sub-schedule, or None when ``tids`` is
    empty.
    """
    tids = [t for t in tids if t not in state.commits]
    if not tids:
        return None
    sub = state.instance.restrict(tids, state.positions)
    sub_schedule = scheduler.schedule(sub, rng)
    base = state.time
    for tid, ct in sub_schedule.commit_times.items():
        state.commits[tid] = base + ct
    state.time = base + sub_schedule.makespan
    last_user_positions(sub_schedule, state.positions)
    return sub_schedule
