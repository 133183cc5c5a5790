"""Unbounded arrival streams for the continuous-arrival service.

The batch generators (:mod:`repro.workloads.generators`) emit a finite
:class:`~repro.core.instance.Instance`; the long-lived scheduling service
(:mod:`repro.service`) instead consumes an *arrival process*: an
unbounded, release-ordered sequence of
:class:`~repro.online.arrivals.TimedTransaction` over a fixed object
universe.  Three processes cover the stability literature's regimes:

* :class:`PoissonStream` -- memoryless arrivals, ``Poisson(rate)``
  transactions per step (the M/G/1-style baseline);
* :class:`MMPPStream` -- a two-state Markov-modulated Poisson process
  (bursty traffic: calm and storm phases with seeded switching);
* :class:`AdversarialStream` -- a ``(rho, b)``-bounded injection
  adversary in the sense of Busch et al., *Stable Scheduling in
  Transactional Memory* (arXiv:2208.07359): at most ``rho * |I| + b``
  transactions in any interval ``I``, released in maximal bursts and all
  contending on one hot object (the load-maximizing shape).

Every stream is deterministic given its generator: the same seed always
produces the same arrival sequence, node placement, object draws, and
homes.  Objects are homed once, at construction, at seeded uniformly
random nodes (there is no finite transaction set to place them at, so
the batch generators' home-at-a-requester rule does not apply).

The uniform draws are numpy's own, made here: :func:`bounded` is the
32-bit Lemire step behind ``Generator.integers(n)`` and :func:`sample`
the Floyd selection and shuffle behind ``Generator.choice(w, k,
replace=False)``, both on the bit generator's ``next_uint32``.  They
yield the values numpy yields and leave the generator in the state
numpy leaves it, without numpy's per-call overhead.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.transaction import Transaction
from ..errors import InstanceError
from ..network.graph import Network
from ..online.arrivals import TimedTransaction

__all__ = ["ArrivalStream", "PoissonStream", "MMPPStream", "AdversarialStream"]

#: one arrival as ``(release, tid, node, objects)``
Row = Tuple[int, int, int, Tuple[int, ...]]

_MASK32 = 0xFFFFFFFF


def bounded(iface, n: int) -> int:
    """A uniform draw from ``range(n)``, ``1 <= n <= 2**32``: the value
    ``Generator.integers(n)`` draws, from the same generator words.

    ``iface`` is the generator's ``bit_generator.ctypes`` interface.
    One step of Lemire's method on its ``next_uint32``: ``m = u * n``,
    redrawn while ``m mod 2**32 < (2**32 - n) mod n``; the value is
    ``m >> 32``.  ``n == 1`` draws nothing.
    """
    if n == 1:
        return 0
    draw, state = iface.next_uint32, iface.state
    m = draw(state) * n
    if m & _MASK32 < n:
        threshold = (_MASK32 + 1 - n) % n
        while m & _MASK32 < threshold:
            m = draw(state) * n
    return m >> 32


def sample(iface, w: int, k: int) -> List[int]:
    """A uniform ``k``-subset of ``range(w)`` in random order: the list
    ``Generator.choice(w, k, replace=False)`` draws, order included.

    Like numpy, a large draw (``w > 10000`` and ``k > w // 50``) takes
    the last ``k`` of a partial Fisher--Yates shuffle of ``range(w)``;
    any other runs Floyd's selection and then shuffles the ``k`` picks.
    """
    if w > 10000 and k > w // 50:
        pool = list(range(w))
        for i in range(w - 1, max(w - k, 1) - 1, -1):
            j = bounded(iface, i + 1)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[w - k:]
    picks: List[int] = []
    taken = set()
    for j in range(w - k, w):
        v = bounded(iface, j + 1)
        if v in taken:
            v = j  # j exceeds every earlier pick, so it is never taken
        taken.add(v)
        picks.append(v)
    for i in range(k - 1, 0, -1):
        j = bounded(iface, i + 1)
        picks[i], picks[j] = picks[j], picks[i]
    return picks


class ArrivalStream:
    """Base class: a deterministic, clocked arrival process.

    Subclasses implement :meth:`_count_at` (how many transactions arrive
    at step ``t``) and may override :meth:`_draw_objects` /
    :meth:`_draw_node`.  The base class assigns monotonically increasing
    tids, draws nodes and object sets, and enforces an optional ``limit``
    on total arrivals (a finite stream for parity tests).  Consumption is
    strictly forward: :meth:`rows` (and :meth:`window`, which wraps its
    rows as transactions) must be called with contiguous half-open step
    ranges.

    The stream fetches ``rng.bit_generator.ctypes`` on every draw rather
    than keeping it: numpy caches the interface, and a stream that held
    it could not be deep-copied or pickled.
    """

    def __init__(
        self,
        net: Network,
        w: int,
        k: int,
        rng: np.random.Generator,
        limit: Optional[int] = None,
    ) -> None:
        if not 1 <= k <= w:
            raise InstanceError(f"need 1 <= k <= w, got k={k}, w={w}")
        if limit is not None and limit < 1:
            raise InstanceError(f"limit must be >= 1, got {limit}")
        self.network = net
        self.w = int(w)
        self.k = int(k)
        self.limit = limit
        self._rng = rng
        # homes are drawn first so arrival draws never perturb them
        iface = rng.bit_generator.ctypes
        self.object_homes: Dict[int, int] = {
            o: bounded(iface, net.n) for o in range(self.w)
        }
        self._next_tid = 0
        self._clock = 0  # next step to be generated

    # ------------------------------------------------------------------ #
    # subclass hooks
    # ------------------------------------------------------------------ #

    def _count_at(self, t: int) -> int:
        """Number of transactions released at step ``t``."""
        raise NotImplementedError

    def _draw_node(self) -> int:
        """Host node for the next transaction (uniform by default)."""
        return bounded(self._rng.bit_generator.ctypes, self.network.n)

    def _draw_objects(self) -> Tuple[int, ...]:
        """Object set for the next transaction (uniform ``k``-subset)."""
        return tuple(sample(self._rng.bit_generator.ctypes, self.w, self.k))

    # ------------------------------------------------------------------ #
    # consumption
    # ------------------------------------------------------------------ #

    @property
    def objects(self) -> Tuple[int, ...]:
        """The fixed object universe, sorted."""
        return tuple(range(self.w))

    @property
    def released(self) -> int:
        """Total transactions released so far."""
        return self._next_tid

    @property
    def exhausted(self) -> bool:
        """True iff a finite stream has released its full ``limit``."""
        return self.limit is not None and self._next_tid >= self.limit

    def rows(self, start: int, end: int) -> List[Row]:
        """Arrivals with release in ``[start, end)``, in release order, as
        plain ``(release, tid, node, objects)`` rows.

        ``start`` must equal the stream's clock (windows are consumed
        contiguously; re-reading or skipping steps would break the
        deterministic draw order).
        """
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

    def window(self, start: int, end: int) -> List[TimedTransaction]:
        """Arrivals with release in ``[start, end)``, in release order
        (:meth:`rows` as transactions)."""
        return [
            TimedTransaction(release, Transaction(tid, node, objects))
            for release, tid, node, objects in self.rows(start, end)
        ]

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #

    def _extra_state(self) -> Dict[str, object]:
        """Subclass-specific mutable state (see :meth:`state_dict`)."""
        return {}

    def _load_extra(self, extra: Dict[str, object]) -> None:
        """Restore subclass-specific state saved by :meth:`_extra_state`."""

    def state_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot of the stream's full mutable state.

        Captures the generator state, the tid/clock cursors, and any
        subclass state (not the object homes: construction draws them
        first), so a stream reconstructed from the same constructor
        arguments and fed this snapshot via :meth:`load_state` continues
        the *exact* arrival sequence -- the contract the cluster's
        write-ahead journal recovery relies on.
        """
        return {
            "rng": self._rng.bit_generator.state,
            "next_tid": self._next_tid,
            "clock": self._clock,
            "extra": self._extra_state(),
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore a snapshot taken by :meth:`state_dict`.

        The stream must have been constructed with the same parameters
        (network, ``w``, ``k``, rates, ...); only the mutable state is
        restored.
        """
        self._rng.bit_generator.state = state["rng"]
        self._next_tid = int(state["next_tid"])  # type: ignore[arg-type]
        self._clock = int(state["clock"])  # type: ignore[arg-type]
        self._load_extra(state["extra"])  # type: ignore[arg-type]

    def take(self, count: int, max_steps: int = 1_000_000) -> List[TimedTransaction]:
        """The next ``count`` arrivals (advances the clock step by step).

        Raises :class:`InstanceError` if the process would need more than
        ``max_steps`` further steps -- a zero-rate guard, not a bound a
        healthy stream can hit.
        """
        out: List[TimedTransaction] = []
        deadline = self._clock + max_steps
        while len(out) < count:
            if self.exhausted:
                break
            if self._clock >= deadline:
                raise InstanceError(
                    f"stream produced {len(out)}/{count} arrivals in "
                    f"{max_steps} steps; rate too low?"
                )
            out.extend(self.window(self._clock, self._clock + 1))
        return out[:count]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n={self.network.n}, w={self.w}, "
            f"k={self.k}, released={self.released})"
        )


class PoissonStream(ArrivalStream):
    """Memoryless arrivals: ``Poisson(rate)`` new transactions per step."""

    def __init__(
        self,
        net: Network,
        w: int,
        k: int,
        rate: float,
        rng: np.random.Generator,
        limit: Optional[int] = None,
    ) -> None:
        if rate <= 0:
            raise InstanceError(f"rate must be positive, got {rate}")
        super().__init__(net, w, k, rng, limit=limit)
        self.rate = float(rate)

    def _count_at(self, t: int) -> int:
        """``Poisson(rate)`` arrivals, independent per step."""
        return int(self._rng.poisson(self.rate))


class MMPPStream(ArrivalStream):
    """Bursty arrivals: a two-state Markov-modulated Poisson process.

    The stream alternates between a *calm* state (``rate_low``) and a
    *storm* state (``rate_high``); each step it leaves its current state
    with probability ``switch``.  Mean sojourn in each state is
    ``1/switch`` steps, so small ``switch`` values produce long bursts.
    """

    def __init__(
        self,
        net: Network,
        w: int,
        k: int,
        rate_low: float,
        rate_high: float,
        switch: float,
        rng: np.random.Generator,
        limit: Optional[int] = None,
    ) -> None:
        if rate_low <= 0 or rate_high <= 0:
            raise InstanceError(
                f"rates must be positive, got {rate_low}, {rate_high}"
            )
        if rate_high < rate_low:
            raise InstanceError(
                f"rate_high {rate_high} must be >= rate_low {rate_low}"
            )
        if not 0.0 < switch <= 1.0:
            raise InstanceError(f"switch must be in (0, 1], got {switch}")
        super().__init__(net, w, k, rng, limit=limit)
        self.rate_low = float(rate_low)
        self.rate_high = float(rate_high)
        self.switch = float(switch)
        self._storm = False

    def _count_at(self, t: int) -> int:
        """Poisson draw at the current state's rate, then maybe switch."""
        rate = self.rate_high if self._storm else self.rate_low
        count = int(self._rng.poisson(rate))
        if float(self._rng.random()) < self.switch:
            self._storm = not self._storm
        return count

    def _extra_state(self) -> Dict[str, object]:
        return {"storm": self._storm}

    def _load_extra(self, extra: Dict[str, object]) -> None:
        self._storm = bool(extra["storm"])


class AdversarialStream(ArrivalStream):
    """A ``(rho, b)``-bounded injection adversary (arXiv:2208.07359 model).

    A token bucket fills at ``rho`` tokens per step up to a burst
    capacity ``b``; the adversary releases transactions only when the
    bucket is full, dumping the whole burst at once -- the worst-case
    release pattern a rate-bounded adversary can produce.  Every interval
    ``I`` therefore carries at most ``rho * |I| + b`` arrivals.  The
    adversary also maximizes contention: every transaction requests hot
    object 0 plus a deterministic rotation of ``k - 1`` fillers, and
    bursts land on consecutive nodes, so the per-object load ``ell``
    grows as fast as the injection bound allows.  Fully deterministic --
    the rng draws only the object homes.
    """

    def __init__(
        self,
        net: Network,
        w: int,
        k: int,
        rho: float,
        burst: int,
        rng: np.random.Generator,
        limit: Optional[int] = None,
    ) -> None:
        if rho <= 0:
            raise InstanceError(f"rho must be positive, got {rho}")
        if burst < 1:
            raise InstanceError(f"burst must be >= 1, got {burst}")
        super().__init__(net, w, k, rng, limit=limit)
        self.rho = float(rho)
        self.burst = int(burst)
        self._tokens = float(burst)  # adversary may open with a full burst
        self._next_node = 0
        self._next_filler = 1 if w > 1 else 0

    def _count_at(self, t: int) -> int:
        """Dump ``floor(tokens)`` transactions whenever the bucket fills."""
        self._tokens = min(self._tokens + self.rho, float(self.burst))
        if self._tokens >= self.burst:
            count = int(self._tokens)
            self._tokens -= count
            return count
        return 0

    def _draw_node(self) -> int:
        """Consecutive nodes: each burst spreads over distinct hosts."""
        node = self._next_node
        self._next_node = (self._next_node + 1) % self.network.n
        return node

    def _draw_objects(self) -> Tuple[int, ...]:
        """Hot object 0 plus a rotating window of ``k - 1`` fillers."""
        if self.k == 1 or self.w == 1:
            return (0,)
        objs = [0]
        filler = self._next_filler
        for _ in range(self.k - 1):
            objs.append(filler)
            filler = filler + 1 if filler + 1 < self.w else 1
        self._next_filler = (
            self._next_filler + 1 if self._next_filler + 1 < self.w else 1
        )
        return tuple(objs)

    def _extra_state(self) -> Dict[str, object]:
        return {
            "tokens": self._tokens,
            "next_node": self._next_node,
            "next_filler": self._next_filler,
        }

    def _load_extra(self, extra: Dict[str, object]) -> None:
        self._tokens = float(extra["tokens"])  # type: ignore[arg-type]
        self._next_node = int(extra["next_node"])  # type: ignore[arg-type]
        self._next_filler = int(extra["next_filler"])  # type: ignore[arg-type]
