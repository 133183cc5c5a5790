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

The draws are numpy's own, read from one block of the bit generator's
raw words per window (:class:`_Words`): a step's count is
``Generator.poisson(rate)`` (by numpy's multiplication method below rate
10), an MMPP switch is ``Generator.random()``, a node or home is
``Generator.integers(n)`` and an object set is ``Generator.choice(w, k,
replace=False)``, order included.  The bounded draws are decoded
vectorized, every Lemire rejection redrawn where numpy redraws it, and
the generator is left in the state numpy's calls would leave it.  A step
from rate 10 up, which numpy counts by rejection, is drawn by numpy's
own calls instead.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..core.transaction import Transaction
from ..errors import InstanceError
from ..network.graph import Network
from ..online.arrivals import TimedTransaction

__all__ = [
    "ArrivalColumns",
    "ArrivalStream",
    "PoissonStream",
    "MMPPStream",
    "AdversarialStream",
]

_MASK32 = 0xFFFFFFFF
#: ``2**-53``: a double is a 53-bit integer times this
_DOUBLE = 1.0 / 9007199254740992.0
#: numpy's ``random_poisson`` counts by multiplication below this rate
#: and by its PTRS rejection sampler from it on
_MULT_RATE_LIMIT = 10.0
#: bit generators with 64-bit words that buffer a uint32's high half
_WIDE = ("PCG64", "PCG64DXSM", "SFC64", "Philox")


class _Words:
    """A bit generator's raw words from its current state on, read the
    way numpy's own draws read them.

    On the 64-bit generators (``_WIDE``) a double is ``(word >> 11) *
    2**-53``; a uint32 is a fresh word's low half, and its high half stays
    buffered for the next uint32 (numpy's ``has_uint32`` and
    ``uinteger``, which keeps the last high half after it is used).  A
    double leaves that buffer alone.  MT19937's words are 32 bits: a
    uint32 is one word, a double ``((a >> 5) * 2**26 + (b >> 6)) *
    2**-53`` of two.

    The cursor is :attr:`pos` (the next unread word) with :attr:`has`
    and :attr:`half` (the buffer).  :meth:`sync` puts the generator where
    numpy's draws would have left it: its saved state, advanced by
    exactly :attr:`pos` words, with that buffer.
    """

    def __init__(self, rng: np.random.Generator, size: int) -> None:
        self._bitgen = rng.bit_generator
        self._start = self._bitgen.state
        name = self._start["bit_generator"]
        if name not in _WIDE and name != "MT19937":
            raise InstanceError(
                f"streams draw from numpy's PCG64, PCG64DXSM, SFC64, Philox "
                f"or MT19937, not {name}"
            )
        self.wide = name != "MT19937"
        #: words per double
        self.stride = 1 if self.wide else 2
        self.pos = 0
        self.has = int(self._start.get("has_uint32", 0))
        self.half = int(self._start.get("uinteger", 0))
        self.words = np.empty(0, np.uint64)
        #: ``doubles[p]``: the double read at word ``p``
        self.doubles: List[float] = []
        self._chunk = max(int(size), 16)
        self.grow()

    def grow(self) -> None:
        """Append the generator's next block of words."""
        more = self._bitgen.random_raw(self._chunk)
        self.words = np.concatenate([self.words, more])
        if self.wide:
            self.doubles += ((more >> 11) * _DOUBLE).tolist()
        else:
            tail = self.words[len(self.doubles):]
            self.doubles += (
                ((tail[:-1] >> 5) * 67108864.0 + (tail[1:] >> 6)) * _DOUBLE
            ).tolist()

    def next_uint32(self) -> int:
        """One uint32 from the cursor (numpy's ``next_uint32``)."""
        if self.has:
            self.has = 0
            return self.half
        if self.pos >= len(self.words):
            self.grow()
        word = int(self.words[self.pos])
        self.pos += 1
        if not self.wide:
            return word
        self.has, self.half = 1, word >> 32
        return word & _MASK32

    def decode(
        self,
        starts: np.ndarray,
        lengths: np.ndarray,
        step_ends: np.ndarray,
        bounds: _Bounds,
        slot: int,
    ) -> Tuple[np.ndarray, bool]:
        """numpy's ``integers`` draws from the cursor, up to the first
        rejection.

        The draws are the next ``step_ends[-1]`` uint32s: the buffered
        half if there is one, then the halves (or words) of each run of
        ``lengths[i]`` words from ``starts[i]``, in order; ``step_ends``
        are the runs' running draw totals.  Draw ``j`` is one Lemire step
        against ``bounds`` at slot ``slot + j``.  Returns the values up to
        and including the first rejected draw, that one redrawn from the
        words that follow it, as numpy redraws, and whether there was a
        redraw (it may be the last draw, so the count cannot tell); the
        cursor is left after the last value.
        """
        count = int(step_ends[-1]) if len(step_ends) else 0
        if not count:
            return np.empty(0, np.uint64), False
        while starts[-1] + lengths[-1] > len(self.words):
            self.grow()
        idx = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
        idx += np.arange(len(idx))
        fresh = self.words[idx]
        head = self.has
        if self.wide:
            u = np.empty(2 * len(fresh) + head, np.uint64)
            u[head::2] = fresh & _MASK32
            u[head + 1::2] = fresh >> 32
            if head:
                u[0] = self.half
            u = u[:count]
        else:
            u = fresh
        bound, threshold = bounds.slots(slot, count)
        m = u * bound
        rejected = np.flatnonzero((m & _MASK32) < threshold)
        last = int(rejected[0]) if rejected.size else count - 1
        # the cursor after draw ``last``: past its word, and past its
        # run's doubles even when it is a half buffered before them
        run_start = int(starts[np.searchsorted(step_ends, last, "right")])
        if last < head:
            self.has = 0
            self.pos = run_start
        elif self.wide:
            word = int(idx[(last - head) >> 1])
            self.pos = max(word + 1, run_start)
            self.has = 1 - ((last - head) & 1)
            self.half = int(self.words[word]) >> 32
        else:
            self.pos = int(idx[last]) + 1
        values = m[:last + 1] >> 32
        if rejected.size:
            n, limit = int(bound[last]), int(threshold[last])
            redraw = self.next_uint32() * n
            while redraw & _MASK32 < limit:
                redraw = self.next_uint32() * n
            values[last] = redraw >> 32
        return values, bool(rejected.size)

    def run(self, count: int) -> Tuple[int, int]:
        """The words of ``count`` uint32 draws from the cursor, with no
        double between them: their start and number."""
        fresh = count - self.has if self.wide else count
        return self.pos, (fresh + 1) >> 1 if self.wide else fresh

    def sync(self) -> None:
        """Leave the generator where numpy's draws would have."""
        state = self._start
        if self.wide:
            state["has_uint32"] = self.has
            state["uinteger"] = self.half
        self._bitgen.state = state
        if self.pos:
            self._bitgen.random_raw(self.pos, output=False)


class _Bounds:
    """The bounds of a cycle of ``integers`` draws and their Lemire
    rejection thresholds ``(2**32 - n) mod n``."""

    def __init__(self, bounds: Sequence[int]) -> None:
        self.bound = np.array(bounds, np.uint64)
        self.threshold = (_MASK32 + 1 - self.bound) % self.bound

    def __len__(self) -> int:
        return len(self.bound)

    def slots(self, slot: int, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Bounds and thresholds of slots ``slot .. slot + count - 1``."""
        at = np.arange(slot, slot + count) % len(self.bound)
        return self.bound[at], self.threshold[at]


def _integers(rng: np.random.Generator, bounds: Sequence[int],
              count: int) -> np.ndarray:
    """``count`` rounds of ``rng.integers(b)`` for each bound ``b`` (all
    above 1), drawn as numpy draws them: shape ``(count, len(bounds))``."""
    cycle = _Bounds(bounds)
    total = count * len(cycle)
    if not total:
        return np.zeros((count, len(cycle)), np.int64)
    words = _Words(rng, total // 2 + 8)
    out: List[np.ndarray] = []
    made = 0
    while made < total:
        start, length = words.run(total - made)
        got, _ = words.decode(np.array([start]), np.array([length]),
                              np.array([total - made]), cycle, made)
        out.append(got)
        made += len(got)
    words.sync()
    return np.concatenate(out).astype(np.int64).reshape(count, len(cycle))


def _draw_bounds(n: int, w: int, k: int) -> Tuple[List[int], bool]:
    """The bounds of one arrival's ``integers`` draws in numpy's order,
    and whether its objects come by Floyd's selection.

    The node is ``integers(n)``; ``choice(w, k, replace=False)`` draws
    Floyd's ``k`` picks (bounds ``w - k + 1 .. w``) and then shuffles
    them (bounds ``k .. 2``), or, when ``w > 10000`` and ``k > w // 50``,
    runs a partial shuffle of ``range(w)`` (bounds ``w`` down).  A bound
    of 1 draws nothing and is left out.
    """
    floyd = not (w > 10000 and k > w // 50)
    if floyd:
        bounds = [n, *range(w - k + 1, w + 1), *range(k, 1, -1)]
    else:
        bounds = [n, *range(w, max(w - k, 1), -1)]
    return [b for b in bounds if b > 1], floyd


def _place(values: np.ndarray, n: int, w: int, k: int,
           floyd: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and ordered object sets from arrivals' draws (one row each,
    in :func:`_draw_bounds` order)."""
    count = len(values)
    columns = iter(values.T)
    node = next(columns) if n > 1 else np.zeros(count, np.int64)
    if not floyd:
        objects = np.empty((count, k), np.int64)
        for row, draws in enumerate(values[:, 1 if n > 1 else 0:].tolist()):
            pool: Dict[int, int] = {}
            for i, j in zip(range(w - 1, 0, -1), draws):
                pool[i], pool[j] = pool.get(j, j), pool.get(i, i)
            objects[row] = [pool.get(o, o) for o in range(w - k, w)]
        return node, objects
    picks = np.empty((count, k), np.int64)
    for i, j in enumerate(range(w - k, w)):
        pick = next(columns) if j else np.zeros(count, np.int64)
        if i:
            taken = (picks[:, :i] == pick[:, None]).any(axis=1)
            pick = np.where(taken, j, pick)
        picks[:, i] = pick
    rows = np.arange(count)
    for i in range(k - 1, 0, -1):
        j = next(columns)
        swapped = picks[:, i].copy()
        picks[:, i] = picks[rows, j]
        picks[rows, j] = swapped
    return node, picks


class ArrivalColumns(NamedTuple):
    """One window's arrivals as arrays, in release order: ``release``,
    ``tid`` and ``node`` of length ``m`` and ``objects`` of shape ``(m,
    k)``, each row in the order the stream drew it."""

    release: np.ndarray
    tid: np.ndarray
    node: np.ndarray
    objects: np.ndarray

    def select(self, mask: np.ndarray) -> "ArrivalColumns":
        """The rows where ``mask`` holds."""
        return ArrivalColumns(*(column[mask] for column in self))

    def timed(self) -> List[TimedTransaction]:
        """The rows as transactions."""
        return [
            TimedTransaction(release, Transaction(tid, node, objects))
            for release, tid, node, objects in zip(
                self.release.tolist(), self.tid.tolist(),
                self.node.tolist(), self.objects.tolist())
        ]


class ArrivalStream:
    """Base class: a deterministic, clocked arrival process.

    Subclasses implement :meth:`_draw`, a window's arrivals as columns.
    The base class homes the objects, hands out windows (as columns or
    transactions) and enforces an optional ``limit`` on total arrivals
    (a finite stream for parity tests).  Consumption is strictly
    forward: :meth:`columns` and :meth:`window` must be called with
    contiguous half-open step ranges.

    A stream holds its generator, never an interface into it, so it can
    be deep-copied and pickled.
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
        homes = (_integers(rng, [net.n], self.w)[:, 0] if net.n > 1
                 else np.zeros(self.w, np.int64))
        self.object_homes: Dict[int, int] = dict(enumerate(homes.tolist()))
        self._next_tid = 0
        self._clock = 0  # next step to be generated

    def _draw(self, start: int, end: int) -> ArrivalColumns:
        """Arrivals of steps ``[start, end)``, tids from the next one on,
        ending at the ``limit`` (the step that reaches it draws its full
        count, then only the arrivals up to the limit)."""
        raise NotImplementedError

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

    def _left(self) -> float:
        """Arrivals left before the limit (infinite without one)."""
        return math.inf if self.limit is None else self.limit - self._next_tid

    def columns(self, start: int, end: int) -> ArrivalColumns:
        """Arrivals with release in ``[start, end)``, in release order, as
        :class:`ArrivalColumns`.

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
        if self.exhausted or end == start:
            none = np.empty(0, np.int64)
            out = ArrivalColumns(none, none, none,
                                 np.empty((0, self.k), np.int64))
        else:
            out = self._draw(start, end)
        self._next_tid += len(out.tid)
        self._clock = end
        return out

    def window(self, start: int, end: int) -> List[TimedTransaction]:
        """Arrivals with release in ``[start, end)``, in release order
        (:meth:`columns` as transactions)."""
        return self.columns(start, end).timed()

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
        """Every arrival of the next steps, drawn one step at a time until
        there are at least ``count`` (fewer only if the stream runs out).

        The last step's arrivals are all returned, so consecutive takes
        hand out contiguous tids and :attr:`released` counts exactly what
        was returned.  Raises :class:`InstanceError` if the process would
        need more than ``max_steps`` further steps -- a zero-rate guard,
        not a bound a healthy stream can hit.
        """
        out: List[TimedTransaction] = []
        deadline = self._clock + max_steps
        while len(out) < count and not self.exhausted:
            if self._clock >= deadline:
                raise InstanceError(
                    f"stream produced {len(out)}/{count} arrivals in "
                    f"{max_steps} steps; rate too low?"
                )
            out.extend(self.window(self._clock, self._clock + 1))
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n={self.network.n}, w={self.w}, "
            f"k={self.k}, released={self.released})"
        )


class _PoissonArrivals(ArrivalStream):
    """Poisson counts at a rate set by a two-state chain, and uniform
    arrivals: the draw shared by :class:`PoissonStream` and
    :class:`MMPPStream`.

    Each step draws ``poisson(rates[storm])``, then, if ``switch`` is
    set, one ``random()`` that flips ``storm`` when below it, then each
    arrival's node and objects.  Steps below rate 10 are read from one
    block of generator words (:class:`_Words`): a scalar scan over the
    block reads each step's count and finds the words of its arrivals,
    one vectorized Lemire step decodes every arrival draw at once, and a
    rejected draw is redrawn and the scan resumed after it.  A step from
    rate 10 up is numpy's own: ``poisson``, ``random`` and one
    ``integers`` call over its arrivals' bounds, which makes the scalar
    draws in order.
    """

    def __init__(
        self,
        net: Network,
        w: int,
        k: int,
        rng: np.random.Generator,
        limit: Optional[int],
        rates: Tuple[float, float],
        switch: Optional[float],
    ) -> None:
        super().__init__(net, w, k, rng, limit=limit)
        self._rates = rates
        self._switch = switch
        self._storm = False
        bounds, self._floyd = _draw_bounds(net.n, self.w, self.k)
        self._bounds = _Bounds(bounds)
        # 64-bit words a step read from a block takes on average at the
        # higher rate below 10: its count, its switch and its arrivals'
        # halves
        rate = max((r for r in rates if r < _MULT_RATE_LIMIT), default=0.0)
        self._step_words = (rate + 1 + (self._switch is not None)
                            + rate * len(bounds) / 2)

    def _block(self, steps: int) -> int:
        """Words to draw for ``steps`` steps, with a margin."""
        return int(1.1 * self._step_words * steps) + 16

    def _draw(self, start: int, end: int) -> ArrivalColumns:
        rng, rates, switch = self._rng, self._rates, self._switch
        enlam = tuple(math.exp(-rate) for rate in rates)
        high = tuple(rate >= _MULT_RATE_LIMIT for rate in rates)
        cycle = self._bounds.bound
        per = len(cycle)
        counts: List[int] = []
        values: List[np.ndarray] = []
        made = 0  # draws decoded so far
        storm = int(self._storm)
        left = self._left()
        t = start
        while t < end and left > 0:
            if high[storm]:
                # from rate 10 up numpy draws the step itself: its count
                # by its rejection sampler, its switch, and its arrivals
                # in one ``integers`` call over their bounds
                c = min(int(rng.poisson(rates[storm])), left)
                if switch is not None and rng.random() < switch:
                    storm ^= 1
                left -= c
                counts.append(c)
                values.append(
                    rng.integers(0, np.tile(cycle, c), dtype=np.uint64))
                made += c * per
                t += 1
                continue
            # the steps up to the next one numpy counts, from one block
            words = _Words(rng, self._block(end - t))
            wide, stride = words.wide, words.stride
            pending = 0  # draws the last counted step still owes
            while True:
                # scan: each step's count, and the words of its arrival
                # draws
                d = words.doubles
                pos, has = words.pos, words.has
                starts: List[int] = []
                ends: List[int] = []
                scanned: List[int] = []
                storms: List[int] = []
                if pending:
                    pos, length = words.run(pending)
                    starts.append(pos)
                    pos += length
                    ends.append(pos)
                    if wide:
                        has = (pending - has) & 1
                lead = len(starts)  # the owed run, if any, comes first
                u, s, q = t, storm, left
                while u < end and q > 0 and not high[s]:
                    at = pos
                    try:
                        # numpy's multiplication method, then the switch
                        floor = enlam[s]
                        prod = d[pos]
                        pos += stride
                        c = 0
                        while prod > floor:
                            prod *= d[pos]
                            pos += stride
                            c += 1
                        if switch is not None:
                            if d[pos] < switch:
                                s ^= 1
                            pos += stride
                    except IndexError:
                        pos = at
                        words.grow()
                        continue
                    if c > q:
                        c = q
                    q -= c
                    starts.append(pos)
                    draws = c * per
                    if draws:
                        if wide:
                            draws -= has
                            has = draws & 1
                            pos += (draws + 1) >> 1
                        else:
                            pos += draws
                    ends.append(pos)
                    scanned.append(c)
                    storms.append(s)
                    u += 1
                first = np.array(starts, np.int64)
                step_ends = np.cumsum(
                    [pending] * lead + [c * per for c in scanned])
                got, redrawn = words.decode(
                    first, np.array(ends, np.int64) - first, step_ends,
                    self._bounds, made)
                values.append(got)
                made += len(got)
                if not redrawn:
                    break
                # the redraw read words the scan gave to later draws or
                # counts: keep the steps up to it, owe the rest of its
                # step's draws, and scan again from the cursor
                last = int(np.searchsorted(step_ends, len(got) - 1, "right"))
                pending = int(step_ends[last]) - len(got)
                kept = scanned[:max(last + 1 - lead, 0)]
                counts += kept
                t += len(kept)
                left -= sum(kept)
                if kept:
                    storm = storms[len(kept) - 1]
            words.pos = pos
            words.sync()
            counts += scanned
            t, storm, left = u, s, q
        self._storm = bool(storm)
        arrivals = np.array(counts, np.int64)
        m = int(arrivals.sum())
        draws = np.concatenate(values).astype(np.int64).reshape(m, per)
        node, objects = _place(draws, self.network.n, self.w, self.k,
                               self._floyd)
        return ArrivalColumns(
            np.repeat(np.arange(start, start + len(counts)), arrivals),
            np.arange(self._next_tid, self._next_tid + m),
            node, objects,
        )


class PoissonStream(_PoissonArrivals):
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
        self.rate = float(rate)
        super().__init__(net, w, k, rng, limit, (self.rate, self.rate), None)


class MMPPStream(_PoissonArrivals):
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
        self.rate_low = float(rate_low)
        self.rate_high = float(rate_high)
        self.switch = float(switch)
        super().__init__(net, w, k, rng, limit,
                         (self.rate_low, self.rate_high), self.switch)

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

    def _draw(self, start: int, end: int) -> ArrivalColumns:
        """Dump ``floor(tokens)`` transactions whenever the bucket fills,
        on consecutive nodes, each on hot object 0 plus a rotating window
        of ``k - 1`` fillers."""
        release: List[int] = []
        node: List[int] = []
        objects: List[List[int]] = []
        left = self._left()
        for t in range(start, end):
            if left <= 0:
                break
            self._tokens = min(self._tokens + self.rho, float(self.burst))
            if self._tokens < self.burst:
                continue
            count = int(self._tokens)
            self._tokens -= count
            for _ in range(min(count, left)):
                release.append(t)
                node.append(self._next_node)
                self._next_node = (self._next_node + 1) % self.network.n
                objects.append(self._objects())
            left -= count
        return ArrivalColumns(
            np.array(release, np.int64),
            np.arange(self._next_tid, self._next_tid + len(release)),
            np.array(node, np.int64),
            np.array(objects, np.int64).reshape(len(release), self.k),
        )

    def _objects(self) -> List[int]:
        """Hot object 0 plus the next rotating window of fillers."""
        if self.k == 1 or self.w == 1:
            return [0]
        objs = [0]
        filler = self._next_filler
        for _ in range(self.k - 1):
            objs.append(filler)
            filler = filler + 1 if filler + 1 < self.w else 1
        self._next_filler = (
            self._next_filler + 1 if self._next_filler + 1 < self.w else 1
        )
        return objs

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
