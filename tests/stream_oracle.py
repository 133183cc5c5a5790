"""numpy's own draws and per-arrival transactions: the oracle of the
arrival streams.

:class:`repro.workloads.streams.ArrivalStream` makes numpy's bounded
draws itself, on the bit generator's ``next_uint32``, and hands out a
window as plain rows; :class:`repro.cluster.ShardedStream` decides
ownership from those rows and builds transactions only for the ones it
owns.  This module keeps the plain form they replace -- homes and nodes
by ``rng.integers(n)``, objects by ``rng.choice(w, k, replace=False)``,
one :class:`~repro.core.transaction.Transaction` per arrival, and a
shard that filters built transactions -- so a test can run both and
require identical arrivals, generator states and shard tallies
(``tests/test_stream_parity.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.cluster import ShardedStream, StreamSpec
from repro.core.transaction import Transaction
from repro.errors import InstanceError
from repro.network.graph import Network
from repro.online.arrivals import TimedTransaction
from repro.workloads.seeds import spawn
from repro.workloads.streams import (
    AdversarialStream,
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


class NumpyDrawStream(ArrivalStream):
    """The base stream's construction, draws and window through numpy.

    Mixed in after a concrete stream class (``class X(PoissonStream,
    NumpyDrawStream)``), so the concrete ``__init__``'s ``super()`` call
    lands here and the concrete ``_count_at`` and hook overrides still
    win.
    """

    def __init__(
        self,
        net: Network,
        w: int,
        k: int,
        rng: np.random.Generator,
        limit: Optional[int] = None,
    ) -> None:
        # rewind the base constructor's homes and draw them through numpy
        state = rng.bit_generator.state
        super().__init__(net, w, k, rng, limit=limit)
        rng.bit_generator.state = state
        self.object_homes: Dict[int, int] = {
            o: int(rng.integers(net.n)) for o in range(self.w)
        }

    def _draw_node(self) -> int:
        return int(self._rng.integers(self.network.n))

    def _draw_objects(self) -> Tuple[int, ...]:
        return tuple(
            int(o)
            for o in self._rng.choice(self.w, size=self.k, replace=False)
        )

    def window(self, start: int, end: int) -> List[TimedTransaction]:
        if start != self._clock:
            raise InstanceError(
                f"stream windows must be contiguous: expected start="
                f"{self._clock}, got {start}"
            )
        if end < start:
            raise InstanceError(f"bad window [{start}, {end})")
        out: List[TimedTransaction] = []
        for t in range(start, end):
            if self.exhausted:
                break
            n_arr = self._count_at(t)
            if self.limit is not None:
                n_arr = min(n_arr, self.limit - self._next_tid)
            for _ in range(n_arr):
                txn = Transaction(
                    self._next_tid, self._draw_node(), self._draw_objects()
                )
                out.append(TimedTransaction(release=t, txn=txn))
                self._next_tid += 1
        self._clock = max(self._clock, end)
        return out


class OraclePoissonStream(PoissonStream, NumpyDrawStream):
    """:class:`PoissonStream` through numpy's draws."""


class OracleMMPPStream(MMPPStream, NumpyDrawStream):
    """:class:`MMPPStream` through numpy's draws."""


class OracleAdversarialStream(AdversarialStream, NumpyDrawStream):
    """:class:`AdversarialStream` (its own hooks) with numpy's homes."""


def build(spec: StreamSpec, net: Network) -> NumpyDrawStream:
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

    def _home_shards(self, txn: Transaction) -> Set[int]:
        homes = self.base.object_homes
        return {self._shard_of[homes[obj]] for obj in txn.objects}

    def class_of(self, txn: Transaction) -> int:
        if self.assign == "tid":
            return txn.tid % self.shards
        shards = self._home_shards(txn)
        coordinator = min(shards) if shards else self._shard_of[txn.node]
        return coordinator % self.shards

    def owns(self, txn: Transaction) -> bool:
        return self.class_of(txn) == self.shard

    def window(self, start: int, end: int) -> List[TimedTransaction]:
        kept = [
            tt
            for tt in self.base.window(start, end)
            if self.owns(tt.txn)
        ]
        self._released += len(kept)
        if self._shard_of is not None:
            self._cross += sum(
                1 for tt in kept if len(self._home_shards(tt.txn)) >= 2
            )
        return kept
