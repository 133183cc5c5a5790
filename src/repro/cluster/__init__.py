"""Crash-tolerant multi-process scheduling cluster.

A supervisor (:func:`run_cluster`) forks N worker processes, each
running a :class:`~repro.service.SchedulingService` over a deterministic
residue-class shard of the shared arrival stream, and keeps the fleet
healthy: heartbeat liveness detection, per-worker write-ahead window
journals with checkpoints, one recovery rule for a worker that died or
went silent -- restart from its journal, exactly where it left off,
within a bounded deterministic budget
(:class:`~repro.faults.backoff.RetryPolicy`), then retire it with its
queued work counted ``lost`` -- and deterministic chaos injection
(:class:`ChaosPlan`) to prove all of it.

The headline guarantee: a run with injected kills commits the same
transaction set as the fault-free run -- the merged
:class:`ClusterReport`'s :meth:`~ClusterReport.parity_key` is
bit-identical -- and the cluster-wide conservation identity
``committed + shed + expired + lost + final_backlog == released``
holds exactly under every supported failure mode.
"""

from .chaos import ChaosPlan, WorkerDelay, WorkerKill, WorkerStall
from .config import ClusterConfig
from .journal import WindowJournal, accounting_digest
from .report import ClusterReport
from .shard import ShardedStream, StreamSpec
from .supervisor import run_cluster
from .worker import WorkerSpec, worker_main

__all__ = [
    "ChaosPlan",
    "ClusterConfig",
    "ClusterReport",
    "ShardedStream",
    "StreamSpec",
    "WindowJournal",
    "WorkerDelay",
    "WorkerKill",
    "WorkerSpec",
    "WorkerStall",
    "accounting_digest",
    "run_cluster",
    "worker_main",
]
