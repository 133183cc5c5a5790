"""Cluster configuration: supervision, liveness, and recovery knobs.

:class:`ClusterConfig` bundles every setting the supervisor applies --
worker count, run length, heartbeat liveness deadlines, the bounded
restart budget (the shared :class:`~repro.faults.backoff.RetryPolicy`)
and checkpoint cadence.  Validation happens at construction, so a bad
cluster fails before the first fork, not after three workers have
already journaled state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import ClusterError
from ..faults.backoff import RetryPolicy

__all__ = ["ClusterConfig"]


@dataclass(frozen=True)
class ClusterConfig:
    """Validated configuration for :func:`~repro.cluster.run_cluster`.

    Parameters
    ----------
    workers:
        Worker processes forked at start; each owns one residue class of
        transaction ids (worker ``i`` owns ``tid % workers == i``).
    windows:
        Arrival windows every worker runs (the cluster's logical length).
    heartbeat_timeout_s:
        Wall-clock liveness deadline: a worker that produces no message
        for this long while its process is alive is a straggler, killed
        and recovered exactly like a worker that died.  Detection timing
        is wall-clock, but because chaos and recovery act at window
        boundaries the recovered *outcome* is deterministic.
    poll_interval_s:
        Supervisor event-loop tick (upper bound on detection latency
        added to the timeout).
    retry:
        Bounded deterministic restart budget per worker -- the same
        :class:`~repro.faults.backoff.RetryPolicy` every fault path in
        the repo shares (and the same field name
        :class:`~repro.service.ServiceConfig` uses).  Restart ``i`` waits
        ``retry.wait(i) * restart_backoff_s`` seconds; a worker that
        dies or goes silent more than ``retry.max_retries`` times is
        retired, its journaled backlog counted ``lost``.
    restart_backoff_s:
        Wall-seconds per backoff unit (small in tests, larger in
        production runs).
    checkpoint_every:
        Windows between full state checkpoints; recovery replays at most
        this many journaled windows.
    journal_dir:
        Directory for journals/checkpoints; ``None`` uses a fresh
        temporary directory removed after the run.  A directory that
        already holds a worker's journal or checkpoint is refused with
        :class:`~repro.errors.ClusterError`: its history belongs to
        another run.
    """

    workers: int = 2
    windows: int = 12
    heartbeat_timeout_s: float = 5.0
    poll_interval_s: float = 0.05
    restart_backoff_s: float = 0.02
    checkpoint_every: int = 8
    journal_dir: Optional[str] = None
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(max_retries=3, max_wait=4)
    )

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ClusterError(f"workers must be >= 1, got {self.workers}")
        if self.windows < 1:
            raise ClusterError(f"windows must be >= 1, got {self.windows}")
        if self.heartbeat_timeout_s <= 0:
            raise ClusterError(
                f"heartbeat_timeout_s must be positive, got "
                f"{self.heartbeat_timeout_s}"
            )
        if self.poll_interval_s <= 0:
            raise ClusterError(
                f"poll_interval_s must be positive, got {self.poll_interval_s}"
            )
        if self.restart_backoff_s < 0:
            raise ClusterError(
                f"restart_backoff_s must be >= 0, got {self.restart_backoff_s}"
            )
        if self.checkpoint_every < 1:
            raise ClusterError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
