"""Scheduler interface.

Every scheduling algorithm implements :class:`Scheduler`: it maps an
:class:`~repro.core.instance.Instance` to a feasible
:class:`~repro.core.schedule.Schedule`.  Randomized schedulers accept a
``numpy.random.Generator``; deterministic ones ignore it.  The table of
named schedulers is :data:`repro.core.dispatch.SCHEDULER_INFO`.
"""

from __future__ import annotations

import abc

import numpy as np

from .instance import Instance
from .schedule import Schedule

__all__ = ["Scheduler"]


class Scheduler(abc.ABC):
    """Abstract base for all schedulers.

    Subclasses set :attr:`name` and implement :meth:`schedule`.  The
    contract -- enforced across the whole test suite -- is that the returned
    schedule passes :meth:`Schedule.validate` for every valid instance.
    """

    #: Display name, the scheduler's ``SCHEDULER_INFO`` key and its
    #: schedules' ``meta["scheduler"]``; subclasses override.
    name: str = "abstract"

    @abc.abstractmethod
    def schedule(
        self, instance: Instance, rng: np.random.Generator | None = None
    ) -> Schedule:
        """Compute a feasible schedule for ``instance``."""

    def __call__(
        self, instance: Instance, rng: np.random.Generator | None = None
    ) -> Schedule:
        return self.schedule(instance, rng)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
