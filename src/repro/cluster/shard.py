"""Deterministic arrival-stream sharding for cluster workers.

Every worker owns one residue class of *assignment classes*: worker
``i`` of ``N`` processes exactly the arrivals whose class is
``i (mod N)``, from step 0 to the end of the run.  Rather than have the
supervisor generate and ship arrivals (a bandwidth and ordering
headache), each worker builds the *identical* base stream from the
shared :class:`StreamSpec` -- same seed, same generator, same arrival
sequence -- and filters it down to its residue class with a
:class:`ShardedStream`.  The shards are therefore disjoint, their union
is exactly the unsharded sequence, and a restarted worker re-derives
its slice from the spec alone (no arrival replay traffic).

Two assignment modes (``StreamSpec.assign``):

* ``"tid"`` (default) -- the class is ``tid`` itself: round-robin over
  workers, topology-agnostic.
* ``"shard"`` -- the class is the transaction's **coordinator shard**:
  the smallest network shard homing any of its objects (its host node's
  shard when it touches none).  On a sharded topology family
  (``shard-cluster``/``fog-hierarchy``/``cluster``) this is the
  blockchain-sharding handoff: every cross-shard transaction is routed
  to exactly one deterministic coordinator, each worker's ``cross``
  counter tallies the cross-shard traffic it owns, and the supervisor's
  merge reconstructs the cluster-wide cross-shard volume.

Every worker still draws every arrival, which keeps the generators
aligned, but draws a window as columns (one block of generator words,
decoded vectorized), keeps its own rows with one mask over them, and
builds transactions only for those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..errors import ClusterError
from ..network.graph import Network
from ..network.sharding import node_shards
from ..online.arrivals import TimedTransaction
from ..workloads.seeds import spawn
from ..workloads.streams import (
    AdversarialStream,
    ArrivalStream,
    MMPPStream,
    PoissonStream,
)

__all__ = ["StreamSpec", "ShardedStream"]

_STREAM_KINDS = ("poisson", "mmpp", "adversarial")
_ASSIGN_MODES = ("tid", "shard")


@dataclass(frozen=True)
class StreamSpec:
    """A picklable recipe for one arrival process.

    Workers rebuild their streams from this spec in their own process,
    so it carries everything but the network: the process kind, the
    object universe ``w`` and per-transaction object count ``k``, the
    rate parameters, and the seed.  :meth:`build` is deterministic --
    every call yields a stream producing the identical sequence.
    """

    kind: str = "poisson"
    w: int = 16
    k: int = 2
    rate: float = 0.5
    rate_low: float = 0.125
    rate_high: float = 1.0
    switch: float = 0.1
    burst: int = 4
    seed: int = 0
    limit: Optional[int] = None
    assign: str = "tid"

    def __post_init__(self) -> None:
        if self.kind not in _STREAM_KINDS:
            raise ClusterError(
                f"unknown stream kind {self.kind!r}; choose from "
                f"{_STREAM_KINDS}"
            )
        if self.assign not in _ASSIGN_MODES:
            raise ClusterError(
                f"unknown assignment mode {self.assign!r}; choose from "
                f"{_ASSIGN_MODES}"
            )

    def build(self, net: Network) -> ArrivalStream:
        """Construct the base (unsharded) stream on ``net``."""
        rng = spawn(self.seed, "cluster-stream", self.kind)
        if self.kind == "poisson":
            return PoissonStream(
                net, w=self.w, k=self.k, rate=self.rate, rng=rng,
                limit=self.limit,
            )
        if self.kind == "mmpp":
            return MMPPStream(
                net, w=self.w, k=self.k, rate_low=self.rate_low,
                rate_high=self.rate_high, switch=self.switch, rng=rng,
                limit=self.limit,
            )
        return AdversarialStream(
            net, w=self.w, k=self.k, rho=self.rate, burst=self.burst,
            rng=rng, limit=self.limit,
        )


class ShardedStream:
    """A residue-class filter over a base :class:`ArrivalStream`.

    Keeps the arrivals whose assignment class is ``shard`` (of
    ``shards``), and duck-types the stream surface the
    :class:`~repro.service.SchedulingService` consumes (``network``,
    ``object_homes``, ``limit``, ``exhausted``, ``window``,
    ``released``); generation is delegated to the base stream so the
    underlying draw order -- and hence determinism -- is untouched.
    ``released`` counts only *owned* arrivals: a worker's service
    accounts exactly its shard, and the supervisor's cross-worker sum
    reconstructs the full stream's accounting identity.
    """

    def __init__(
        self,
        base: ArrivalStream,
        shards: int,
        shard: int,
        assign: str = "tid",
    ) -> None:
        if shards < 1:
            raise ClusterError(f"shards must be >= 1, got {shards}")
        if assign not in _ASSIGN_MODES:
            raise ClusterError(
                f"unknown assignment mode {assign!r}; choose from "
                f"{_ASSIGN_MODES}"
            )
        if not 0 <= shard < shards:
            raise ClusterError(f"shard {shard} outside 0..{shards - 1}")
        self.base = base
        self.shards = int(shards)
        self.shard = int(shard)
        self.assign = assign
        # each object's network shard, the one its home lies in; shard
        # assignment needs the network's shard partition up front, and
        # raising TopologyError here fails the cluster before any fork
        self._object_shard = None
        if assign == "shard":
            shard_of = node_shards(base.network)
            self._object_shard = np.array(
                [shard_of[base.object_homes[o]] for o in range(base.w)],
                np.int64,
            )
        self._released = 0
        self._cross = 0

    # ------------------------------------------------------------------ #
    # the stream surface the service consumes
    # ------------------------------------------------------------------ #

    @property
    def network(self) -> Network:
        """The base stream's network."""
        return self.base.network

    @property
    def object_homes(self) -> Dict[int, int]:
        """The base stream's object homes (identical across workers)."""
        return self.base.object_homes

    @property
    def limit(self) -> Optional[int]:
        """The base stream's total-arrival limit (shared, not per-shard)."""
        return self.base.limit

    @property
    def exhausted(self) -> bool:
        """True iff the base stream has released its full limit."""
        return self.base.exhausted

    @property
    def released(self) -> int:
        """Owned arrivals released through this shard so far."""
        return self._released

    @property
    def cross_released(self) -> int:
        """Owned cross-shard arrivals so far (0 under ``assign="tid"``)."""
        return self._cross

    def window(self, start: int, end: int) -> List[TimedTransaction]:
        """Owned arrivals in ``[start, end)``; unowned draws are discarded.

        The base stream still draws every arrival (keeping the generator
        aligned across all workers), as columns; one mask picks this
        shard's rows and only those become transactions.  ``"tid"`` mode
        owns the residue class ``tid mod shards``.  ``"shard"`` mode is
        the coordinator handoff: the smallest network shard homing any of
        a row's objects, folded mod ``shards``, so every worker computes
        the same coordinator from the spec alone; a row whose objects lie
        in two or more network shards is cross-shard, and the owned ones
        are tallied in :attr:`cross_released`.
        """
        drawn = self.base.columns(start, end)
        if self._object_shard is None:
            owned = drawn.tid % self.shards == self.shard
        else:
            shards = self._object_shard[drawn.objects]
            coordinator = shards.min(axis=1)
            owned = coordinator % self.shards == self.shard
            self._cross += int(np.count_nonzero(
                shards.max(axis=1)[owned] != coordinator[owned]))
        kept = drawn.select(owned).timed()
        self._released += len(kept)
        return kept

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #

    def state_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot: base stream state plus shard bookkeeping."""
        return {
            "base": self.base.state_dict(),
            "released": self._released,
            "cross": self._cross,
            "shards": self.shards,
            "shard": self.shard,
            "assign": self.assign,
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore a snapshot taken by :meth:`state_dict`."""
        self.base.load_state(state["base"])  # type: ignore[arg-type]
        self._released = int(state["released"])  # type: ignore[arg-type]
        self._cross = int(state["cross"])  # type: ignore[arg-type]
        self.shards = int(state["shards"])  # type: ignore[arg-type]
        self.shard = int(state["shard"])  # type: ignore[arg-type]
        assign = str(state["assign"])
        if assign != self.assign:
            raise ClusterError(
                f"snapshot assignment mode {assign!r} does not match this "
                f"stream's {self.assign!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedStream(shards={self.shards}, shard={self.shard}, "
            f"assign={self.assign!r}, released={self._released})"
        )
