"""JSON (de)serialization for the extension models.

Round trips for replicated (read/write) instances and online workloads,
mirroring :mod:`repro.io.serialize`'s conventions: plain-data dicts,
revalidation on load, topology metadata preserved, and files in the
standard envelope (kinds ``"rw_instance"`` and ``"online_workload"``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict

from ..online.arrivals import OnlineWorkload, TimedTransaction
from ..replication.model import ReplicatedInstance, RWTransaction
from .serialize import network_from_dict, network_to_dict, read_json, write_json

__all__ = [
    "rw_instance_to_dict",
    "rw_instance_from_dict",
    "save_rw_instance",
    "load_rw_instance",
    "online_workload_to_dict",
    "online_workload_from_dict",
    "save_online_workload",
    "load_online_workload",
]


def rw_instance_to_dict(inst: ReplicatedInstance) -> Dict[str, Any]:
    """Plain-data form of a replicated (read/write) instance."""
    return {
        "network": network_to_dict(inst.network),
        "transactions": [
            {
                "tid": t.tid,
                "node": t.node,
                "reads": sorted(t.reads),
                "writes": sorted(t.writes),
            }
            for t in inst.transactions
        ],
        "object_homes": {str(o): v for o, v in inst.object_homes.items()},
    }


def rw_instance_from_dict(data: Dict[str, Any]) -> ReplicatedInstance:
    """Inverse of :func:`rw_instance_to_dict` (revalidates)."""
    net = network_from_dict(data["network"])
    txns = [
        RWTransaction(t["tid"], t["node"], t["reads"], t["writes"])
        for t in data["transactions"]
    ]
    homes = {int(o): v for o, v in data["object_homes"].items()}
    return ReplicatedInstance(net, txns, homes)


def online_workload_to_dict(wl: OnlineWorkload) -> Dict[str, Any]:
    """Plain-data form of an online workload (releases + accesses)."""
    return {
        "network": network_to_dict(wl.network),
        "arrivals": [
            {
                "release": a.release,
                "tid": a.txn.tid,
                "node": a.txn.node,
                "objects": sorted(a.txn.objects),
            }
            for a in wl.arrivals
        ],
        "object_homes": {
            str(o): v for o, v in wl.instance.object_homes.items()
        },
    }


def online_workload_from_dict(data: Dict[str, Any]) -> OnlineWorkload:
    """Inverse of :func:`online_workload_to_dict` (revalidates)."""
    from ..core.transaction import Transaction

    net = network_from_dict(data["network"])
    arrivals = [
        TimedTransaction(
            a["release"], Transaction(a["tid"], a["node"], a["objects"])
        )
        for a in data["arrivals"]
    ]
    homes = {int(o): v for o, v in data["object_homes"].items()}
    return OnlineWorkload(net, arrivals, homes)


def save_rw_instance(inst: ReplicatedInstance, path: str | Path) -> None:
    """Write a replicated instance to a JSON file."""
    write_json(path, "rw_instance", rw_instance_to_dict(inst))


def load_rw_instance(path: str | Path) -> ReplicatedInstance:
    """Read a replicated instance from a JSON file."""
    return rw_instance_from_dict(read_json(path, "rw_instance"))


def save_online_workload(wl: OnlineWorkload, path: str | Path) -> None:
    """Write an online workload to a JSON file."""
    write_json(path, "online_workload", online_workload_to_dict(wl))


def load_online_workload(path: str | Path) -> OnlineWorkload:
    """Read an online workload from a JSON file."""
    return online_workload_from_dict(read_json(path, "online_workload"))
