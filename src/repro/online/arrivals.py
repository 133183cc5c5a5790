"""Online workloads: transactions released over time (§9, open question 1).

The paper's batch model knows all transactions at time 0; its first open
question asks about the *online* setting where transactions keep arriving.
An :class:`OnlineWorkload` is a batch instance plus a release time per
transaction; schedulers must not commit a transaction before its release.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ..core.instance import Instance
from ..core.transaction import Transaction
from ..errors import InstanceError
from ..network.graph import Network

__all__ = ["TimedTransaction", "OnlineWorkload", "poisson_workload"]


@dataclass(frozen=True, order=True)
class TimedTransaction:
    """A transaction and its release (arrival) time step."""

    release: int
    txn: Transaction


def _release_order(timed: TimedTransaction) -> tuple:
    return (timed.release, timed.txn.tid, timed.txn.node)


class OnlineWorkload:
    """A release-ordered stream of transactions over a network."""

    def __init__(
        self,
        network: Network,
        arrivals: Sequence[TimedTransaction],
        object_homes: Dict[int, int],
    ) -> None:
        # the order TimedTransaction's (release, txn) comparison gives,
        # Transaction comparing (tid, node), without the dataclass calls
        self.arrivals = tuple(sorted(arrivals, key=_release_order))
        for a in self.arrivals:
            if a.release < 0:
                raise InstanceError(
                    f"transaction {a.txn.tid} released at negative time"
                )
        # reuse Instance validation for the underlying batch structure
        self.instance = Instance(
            network, [a.txn for a in self.arrivals], object_homes
        )
        self._release: Dict[int, int] = {
            a.txn.tid: a.release for a in self.arrivals
        }

    @property
    def network(self) -> Network:
        return self.instance.network

    @property
    def m(self) -> int:
        """Number of transactions in the stream."""
        return len(self.arrivals)

    def release_of(self, tid: int) -> int:
        """Release time of transaction ``tid``."""
        return self._release[tid]

    @property
    def horizon(self) -> int:
        """Last release time."""
        return max((a.release for a in self.arrivals), default=0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OnlineWorkload(m={self.m}, horizon={self.horizon}, "
            f"n={self.network.n})"
        )


def poisson_workload(
    net: Network,
    w: int,
    k: int,
    rate: float,
    count: int,
    rng: np.random.Generator,
) -> OnlineWorkload:
    """``count`` transactions with Poisson arrivals of intensity ``rate``.

    Inter-arrival gaps are geometric with mean ``1/rate`` (the discrete
    analogue); each transaction lands on a distinct uniformly random node
    and requests ``k`` of ``w`` objects uniformly.  ``count`` must not
    exceed the node count (one transaction per node, as in the batch
    model).
    """
    if count > net.n:
        raise InstanceError(
            f"count={count} exceeds {net.n} nodes (one txn per node)"
        )
    if not 1 <= k <= w:
        raise ValueError(f"need 1 <= k <= w, got k={k}, w={w}")
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    # deferred: workloads.streams imports this module, and the workloads
    # package initializes generators before streams, so a module-level
    # import here would close an import cycle
    from ..workloads.generators import homes_at_random_requesters
    nodes = rng.choice(net.n, size=count, replace=False)
    t = 0
    arrivals = []
    txns = []
    for i in range(count):
        t += int(rng.geometric(min(rate, 1.0)))
        txn = Transaction(i, int(nodes[i]), rng.choice(w, size=k, replace=False))
        txns.append(txn)
        arrivals.append(TimedTransaction(release=t, txn=txn))
    homes = homes_at_random_requesters(txns, w, rng)
    return OnlineWorkload(net, arrivals, homes)
