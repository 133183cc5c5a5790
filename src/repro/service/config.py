"""Service configuration: one validated knob set for the whole loop.

:class:`ServiceConfig` bundles every robustness policy the service
applies -- window length, the backpressure mark and admission policy,
per-transaction deadlines, the bounded retry policy for failed windows,
and the saturation detector's regression parameters.  Validation happens
at construction so a bad configuration fails before the first window,
not three thousand windows in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.dispatch import SCHEDULER_INFO
from ..errors import ServiceError
from ..faults.backoff import RetryPolicy

__all__ = ["ServiceConfig"]

_ADMISSION_POLICIES = ("defer", "shed", "strict")


@dataclass(frozen=True)
class ServiceConfig:
    """Validated configuration for :class:`~repro.service.SchedulingService`.

    Parameters
    ----------
    window:
        Arrival-window length in time steps; each window's arrivals are
        batched and scheduled together.
    high_water:
        Backpressure mark on the backlog (pending + deferred).
        Admission closes when the backlog reaches ``high_water`` and --
        hysteresis -- reopens only once it drains below
        :attr:`drain_mark`, ``max(1, high_water // 2)`` (so a high-water
        mark of 1 still reopens on an empty backlog).
    admission:
        What a closed gate does with a release: ``"defer"`` queues it
        FIFO (nothing lost), ``"shed"`` refuses it permanently (counted
        as shed), ``"strict"`` raises
        :class:`~repro.errors.OverloadError`.
    deadline:
        Optional max sojourn (steps since release) before a waiting
        transaction expires, counted in the report; ``None`` disables
        expiry.
    retry:
        Bounded deterministic backoff applied both *inside* windows (hop
        retries in the reactive engine) and *across* windows: a window
        whose execution hits an unabsorbable fault returns its batch to
        the backlog and backs off ``retry.wait(attempt)`` windows; a
        transaction exceeding ``retry.max_retries`` failed windows is
        dropped with a typed reason.
    detector_horizon / slope_threshold:
        The saturation detector's sliding regression: over the last
        ``detector_horizon`` windows, a backlog-growth slope above
        ``slope_threshold`` (transactions per window) with the backlog at
        or above :attr:`drain_mark` declares saturation, and the service
        sheds load until the backlog drains below it.
    algo:
        The scheduler the batch engine (the engine of a service without
        a fault plan) runs on each window: ``"auto"`` picks the paper's
        scheduler for the stream's topology, any other name must be a
        :data:`~repro.core.dispatch.SCHEDULER_INFO` key.
    """

    window: int = 16
    high_water: int = 64
    deadline: Optional[int] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    detector_horizon: int = 8
    slope_threshold: float = 0.5
    algo: str = "auto"
    admission: str = "defer"

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ServiceError(f"window must be >= 1, got {self.window}")
        if self.high_water < 1:
            raise ServiceError(
                f"high_water must be >= 1, got {self.high_water}"
            )
        if self.admission not in _ADMISSION_POLICIES:
            raise ServiceError(
                f"unknown admission policy {self.admission!r}; choose from "
                f"{_ADMISSION_POLICIES}"
            )
        if self.deadline is not None and self.deadline < 1:
            raise ServiceError(
                f"deadline must be >= 1 steps, got {self.deadline}"
            )
        if self.detector_horizon < 2:
            raise ServiceError(
                f"detector_horizon must be >= 2, got {self.detector_horizon}"
            )
        if self.slope_threshold <= 0:
            raise ServiceError(
                f"slope_threshold must be positive, got "
                f"{self.slope_threshold}"
            )
        if self.algo != "auto" and self.algo not in SCHEDULER_INFO:
            raise ServiceError(
                f"unknown scheduler {self.algo!r}; choose 'auto' or one of "
                f"{sorted(SCHEDULER_INFO)}"
            )

    @property
    def drain_mark(self) -> int:
        """The mark the backlog must drain below: ``max(1, high_water // 2)``.

        The gate reopens below it, and the saturation detector arms at
        or above it.
        """
        return max(1, self.high_water // 2)
