"""numpy's own draws, one call each, and per-arrival transactions: the
oracle of the arrival streams.

:class:`repro.workloads.streams.ArrivalStream` reads a window's draws
from one block of raw generator words and decodes them vectorized;
:class:`repro.cluster.ShardedStream` decides ownership from the window's
columns and builds transactions only for the rows it owns.  This module
keeps the plain form they replace -- homes and nodes by
``rng.integers(n)``, objects by ``rng.choice(w, k, replace=False)``,
counts by ``rng.poisson(rate)`` and MMPP switches by ``rng.random()``,
drawn step by step and arrival by arrival, and a shard that filters
built transactions -- so a test can run both and require identical
arrivals, generator states and shard tallies
(``tests/test_stream_parity.py``).  The adversarial stream draws nothing
but its homes, so its oracle keeps the stream's own rows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.cluster import ShardedStream, StreamSpec
from repro.core.transaction import Transaction
from repro.errors import InstanceError
from repro.network.graph import Network
from repro.network.sharding import node_shards
from repro.workloads.seeds import spawn
from repro.workloads.streams import (
    AdversarialStream,
    ArrivalColumns,
    ArrivalStream,
    MMPPStream,
    PoissonStream,
)

__all__ = [
    "OracleAdversarialStream",
    "OracleMMPPStream",
    "OraclePoissonStream",
    "OracleShardedStream",
    "build",
]

#: one arrival as ``(release, tid, node, objects)``
Row = Tuple[int, int, int, Tuple[int, ...]]


class NumpyHomes(ArrivalStream):
    """The base stream's construction with numpy's homes.

    Mixed in after a concrete stream class (``class X(PoissonStream,
    NumpyHomes)``), so the concrete ``__init__``'s ``super()`` call lands
    here: the stream's own homes are rewound and drawn again through
    ``rng.integers``.
    """

    def __init__(
        self,
        net: Network,
        w: int,
        k: int,
        rng: np.random.Generator,
        limit: Optional[int] = None,
    ) -> None:
        state = rng.bit_generator.state
        super().__init__(net, w, k, rng, limit=limit)
        rng.bit_generator.state = state
        self.object_homes: Dict[int, int] = {
            o: int(rng.integers(net.n)) for o in range(self.w)
        }


class NumpyDrawStream(NumpyHomes):
    """Every draw through its own numpy call, arrival by arrival."""

    def _count_at(self, t: int) -> int:
        """Number of transactions released at step ``t``."""
        raise NotImplementedError

    def _draw_node(self) -> int:
        return int(self._rng.integers(self.network.n))

    def _draw_objects(self) -> Tuple[int, ...]:
        return tuple(
            int(o)
            for o in self._rng.choice(self.w, size=self.k, replace=False)
        )

    def rows(self, start: int, end: int) -> List[Row]:
        if start != self._clock:
            raise InstanceError(
                f"stream windows must be contiguous: expected start="
                f"{self._clock}, got {start}"
            )
        if end < start:
            raise InstanceError(f"bad window [{start}, {end})")
        out: List[Row] = []
        for t in range(start, end):
            if self.exhausted:
                break
            n_arr = self._count_at(t)
            if self.limit is not None:
                n_arr = min(n_arr, self.limit - self._next_tid)
            for _ in range(n_arr):
                out.append(
                    (t, self._next_tid, self._draw_node(), self._draw_objects())
                )
                self._next_tid += 1
        self._clock = max(self._clock, end)
        return out

    def columns(self, start: int, end: int) -> ArrivalColumns:
        rows = self.rows(start, end)
        return ArrivalColumns(
            np.array([r[0] for r in rows], np.int64),
            np.array([r[1] for r in rows], np.int64),
            np.array([r[2] for r in rows], np.int64),
            np.array([r[3] for r in rows], np.int64).reshape(
                len(rows), self.k),
        )


class OraclePoissonStream(PoissonStream, NumpyDrawStream):
    """:class:`PoissonStream` through numpy's draws."""

    def _count_at(self, t: int) -> int:
        return int(self._rng.poisson(self.rate))


class OracleMMPPStream(MMPPStream, NumpyDrawStream):
    """:class:`MMPPStream` through numpy's draws."""

    def _count_at(self, t: int) -> int:
        rate = self.rate_high if self._storm else self.rate_low
        count = int(self._rng.poisson(rate))
        if float(self._rng.random()) < self.switch:
            self._storm = not self._storm
        return count


class OracleAdversarialStream(AdversarialStream, NumpyHomes):
    """:class:`AdversarialStream` (its own rows) with numpy's homes."""


def build(spec: StreamSpec, net: Network) -> ArrivalStream:
    """The oracle twin of ``spec.build(net)``: same seed, same process."""
    rng = spawn(spec.seed, "cluster-stream", spec.kind)
    if spec.kind == "poisson":
        return OraclePoissonStream(
            net, w=spec.w, k=spec.k, rate=spec.rate, rng=rng,
            limit=spec.limit,
        )
    if spec.kind == "mmpp":
        return OracleMMPPStream(
            net, w=spec.w, k=spec.k, rate_low=spec.rate_low,
            rate_high=spec.rate_high, switch=spec.switch, rng=rng,
            limit=spec.limit,
        )
    return OracleAdversarialStream(
        net, w=spec.w, k=spec.k, rho=spec.rate, burst=spec.burst, rng=rng,
        limit=spec.limit,
    )


class OracleShardedStream(ShardedStream):
    """A shard that filters the base stream's built transactions."""

    def __init__(self, base, shards, shard, assign="tid"):
        super().__init__(base, shards, shard, assign=assign)
        if assign == "shard":
            self._shard_of = node_shards(base.network)

    def _home_shards(self, txn: Transaction) -> Set[int]:
        homes = self.base.object_homes
        return {self._shard_of[homes[obj]] for obj in txn.objects}

    def class_of(self, txn: Transaction) -> int:
        if self.assign == "tid":
            return txn.tid % self.shards
        return min(self._home_shards(txn)) % self.shards

    def owns(self, txn: Transaction) -> bool:
        return self.class_of(txn) == self.shard

    def window(self, start, end):
        kept = [
            tt
            for tt in self.base.window(start, end)
            if self.owns(tt.txn)
        ]
        self._released += len(kept)
        if self.assign == "shard":
            self._cross += sum(
                1 for tt in kept if len(self._home_shards(tt.txn)) >= 2
            )
        return kept
