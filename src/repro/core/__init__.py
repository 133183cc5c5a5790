"""Core scheduling library: the paper's contribution.

Problem model (:class:`Transaction`, :class:`Instance`), schedules and
feasibility (:class:`Schedule`), the §2.3 greedy colouring engine, and one
scheduler per topology family of §3-§7.
"""

from .cluster import ClusterScheduler, object_cluster_spread
from .coloring import greedy_color, validate_coloring
from .dependency import DependencyGraph
from .dispatch import SCHEDULER_INFO, SchedulerInfo, resolve_scheduler
from .greedy import CliqueScheduler, DiameterScheduler, GreedyScheduler
from .grid import GridScheduler
from .incremental import (
    GREEDY_FAMILY,
    DistanceMemo,
    IncrementalConflictGraph,
    SchedulerSession,
    open_session,
)
from .instance import Instance
from .line import LineScheduler
from .retime import compact_schedule
from .schedule import Schedule, Visit
from .scheduler import Scheduler
from .sharded import (
    ShardedClusterScheduler,
    ShardedScheduler,
    ShardSplit,
    cross_shard_ratio,
    shard_split,
)
from .star import StarScheduler
from .transaction import Transaction

__all__ = [
    "Transaction",
    "Instance",
    "Schedule",
    "Visit",
    "DependencyGraph",
    "greedy_color",
    "validate_coloring",
    "Scheduler",
    "GreedyScheduler",
    "compact_schedule",
    "CliqueScheduler",
    "DiameterScheduler",
    "LineScheduler",
    "GridScheduler",
    "ClusterScheduler",
    "object_cluster_spread",
    "StarScheduler",
    "ShardedScheduler",
    "ShardedClusterScheduler",
    "ShardSplit",
    "shard_split",
    "cross_shard_ratio",
    "SchedulerInfo",
    "SCHEDULER_INFO",
    "resolve_scheduler",
    "GREEDY_FAMILY",
    "DistanceMemo",
    "IncrementalConflictGraph",
    "SchedulerSession",
    "open_session",
]
