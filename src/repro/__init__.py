"""repro: Fast Scheduling in Distributed Transactional Memory (SPAA 2017).

A from-scratch reproduction of Busch, Herlihy, Popovic & Sharma's offline
transaction schedulers for the data-flow model of distributed transactional
memory, including:

* the weighted-graph network substrate and all topologies the paper
  studies (:mod:`repro.network`);
* the problem model, greedy colouring engine, and one scheduler per
  topology family (:mod:`repro.core`);
* a synchronous hop-level execution engine (:mod:`repro.sim`);
* certified lower bounds and the §8 hard instances (:mod:`repro.bounds`);
* baselines, workload generators, and the experiment suite
  (:mod:`repro.baselines`, :mod:`repro.workloads`, :mod:`repro.experiments`).

Quickstart::

    import repro

    net = repro.network.clique(64)
    rng = repro.workloads.root_rng(7)
    inst = repro.workloads.random_k_subsets(net, w=16, k=2, rng=rng)
    sched = repro.schedule(inst, rng=rng)  # algo="auto"
    sched.validate()
    print(sched.makespan, repro.bounds.makespan_lower_bound(inst))
"""

from . import (
    analysis,
    baselines,
    bounds,
    cluster,
    controlflow,
    core,
    faults,
    io,
    network,
    online,
    replication,
    service,
    sim,
    staticcheck,
    viz,
    workloads,
)
from .errors import ClusterError, FaultError, RecoveryError, ReproError
from .placement import median_node, optimize_homes
from .core import (
    SCHEDULER_INFO,
    Instance,
    Schedule,
    SchedulerInfo,
    SchedulerSession,
    Transaction,
    open_session,
    resolve_scheduler,
)
from .core.dispatch import schedule
from .network import TOPOLOGY_INFO, TopologyInfo, make_network

__version__ = "1.2.0"

__all__ = [
    "analysis",
    "baselines",
    "bounds",
    "cluster",
    "controlflow",
    "core",
    "faults",
    "io",
    "network",
    "online",
    "replication",
    "service",
    "sim",
    "staticcheck",
    "viz",
    "workloads",
    "ReproError",
    "FaultError",
    "RecoveryError",
    "ClusterError",
    "Transaction",
    "Instance",
    "Schedule",
    "optimize_homes",
    "median_node",
    "schedule",
    "open_session",
    "SchedulerSession",
    "resolve_scheduler",
    "SchedulerInfo",
    "SCHEDULER_INFO",
    "TopologyInfo",
    "TOPOLOGY_INFO",
    "make_network",
    "__version__",
]
