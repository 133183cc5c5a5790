"""Declarative fault plans: what breaks, when, and for how long.

A :class:`FaultPlan` is an immutable description of every disruption a run
will face -- link failure/repair windows, node crashes, transient object
stalls, and per-link delay spikes.  The fault-aware engine
(:mod:`repro.faults.engine`) replays a schedule *against* a plan, so the
same plan can be rerun under different schedules (and vice versa) and every
reported number is reproducible from the plan alone.

Events use half-open time windows ``[start, end)``; ``end=None`` means the
fault is permanent (a link that never heals, a node that never reboots).
:func:`random_fault_plan` draws a seeded random workload of faults whose
expected volume scales with a single ``intensity`` knob -- the independent
variable of the E17 experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from ..errors import FaultError
from ..network.graph import Network

__all__ = [
    "LinkFailure",
    "NodeCrash",
    "ObjectStall",
    "DelaySpike",
    "FaultPlan",
    "random_fault_plan",
]

Edge = Tuple[int, int]


def _edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class LinkFailure:
    """Link ``(u, v)`` is down during ``[start, end)``.

    ``end=None`` models a permanent failure; otherwise the link repairs
    itself at ``end`` and carries traffic again from that step on.  Objects
    already in flight on the link when it fails complete their hop (the
    packet drains); new hops cannot enter a down link.
    """

    u: int
    v: int
    start: int
    end: Optional[int] = None

    def down_at(self, t: float) -> bool:
        """True iff the link is unusable at time ``t``."""
        return self.start <= t and (self.end is None or t < self.end)

    def describe(self) -> str:
        """Human-readable one-liner for degradation reports."""
        window = "forever" if self.end is None else f"until t={self.end}"
        return f"link ({self.u},{self.v}) down from t={self.start} {window}"


@dataclass(frozen=True)
class NodeCrash:
    """Node ``node`` crashes (permanently) at ``time``.

    A crash kills the *compute* plane of the node: its transaction can no
    longer commit, and object replicas parked there are lost (the engine
    restores them from their durable home).  The *routing* plane survives
    -- objects may still be forwarded through the node's links, matching
    the common deployment where the store process dies but the switch
    stays up.  Killing the links too is expressed by adding
    :class:`LinkFailure` events for the node's incident edges.
    """

    node: int
    time: int

    def describe(self) -> str:
        """Human-readable one-liner for degradation reports."""
        return f"node {self.node} crashes at t={self.time}"


@dataclass(frozen=True)
class ObjectStall:
    """Object ``obj`` cannot depart its current node during ``[start, end)``.

    Models a transiently wedged object (lock-holder preemption, GC pause,
    hot-standby handover): the object stays readable in place but its
    forwarding is frozen until the stall clears.
    """

    obj: int
    start: int
    end: int

    def stalled_at(self, t: float) -> bool:
        """True iff the object is frozen at time ``t``."""
        return self.start <= t < self.end

    def describe(self) -> str:
        """Human-readable one-liner for degradation reports."""
        return f"object {self.obj} stalled t=[{self.start},{self.end})"


@dataclass(frozen=True)
class DelaySpike:
    """Hops entering link ``(u, v)`` during ``[start, end)`` take ``factor``x.

    The per-link, windowed analogue of the synchronicity factor ``phi``
    (:mod:`repro.sim.asynchrony`): a hop of weight ``w`` entering the link
    inside the window needs ``ceil(w * factor)`` steps.
    """

    u: int
    v: int
    start: int
    end: int
    factor: float

    def active_at(self, t: float) -> bool:
        """True iff the spike window covers time ``t``."""
        return self.start <= t < self.end

    def describe(self) -> str:
        """Human-readable one-liner for degradation reports."""
        return (
            f"link ({self.u},{self.v}) {self.factor:g}x slow "
            f"t=[{self.start},{self.end})"
        )


FaultEvent = object  # union of the four event dataclasses above


class FaultPlan:
    """An immutable, validated collection of fault events.

    Parameters
    ----------
    events:
        Any mix of :class:`LinkFailure`, :class:`NodeCrash`,
        :class:`ObjectStall`, and :class:`DelaySpike`.  Windows must be
        well-formed (``start >= 0``, ``end > start`` when finite, delay
        factors ``>= 1``).
    network:
        Optional :class:`~repro.network.graph.Network` to validate the
        events against (see :meth:`validate_against`): an event naming a
        node or link the network does not have raises :class:`FaultError`
        here, at construction, instead of a bare ``KeyError`` mid-run.

    The plan indexes events by kind so the engine's hot queries (is this
    link down now?  when does this node die?) are cheap, and assigns every
    event a stable index used for per-fault attribution in the
    degradation report.
    """

    def __init__(
        self,
        events: Iterable[FaultEvent] = (),
        network: Optional[Network] = None,
    ) -> None:
        evs: List[FaultEvent] = []
        for e in events:
            if isinstance(e, LinkFailure):
                if e.start < 0 or (e.end is not None and e.end <= e.start):
                    raise FaultError(f"bad link-failure window: {e}")
                evs.append(
                    e if e.u <= e.v
                    else LinkFailure(e.v, e.u, e.start, e.end)
                )
            elif isinstance(e, NodeCrash):
                if e.time < 0:
                    raise FaultError(f"bad crash time: {e}")
                evs.append(e)
            elif isinstance(e, ObjectStall):
                if e.start < 0 or e.end <= e.start:
                    raise FaultError(f"bad stall window: {e}")
                evs.append(e)
            elif isinstance(e, DelaySpike):
                if e.start < 0 or e.end <= e.start or e.factor < 1.0:
                    raise FaultError(f"bad delay spike: {e}")
                evs.append(
                    e if e.u <= e.v
                    else DelaySpike(e.v, e.u, e.start, e.end, e.factor)
                )
            else:
                raise FaultError(f"unknown fault event type: {type(e).__name__}")
        self.events: Tuple[FaultEvent, ...] = tuple(evs)
        self._index: Dict[int, int] = {id(e): i for i, e in enumerate(self.events)}

        self._link_failures: Dict[Edge, List[LinkFailure]] = {}
        self._crashes: Dict[int, NodeCrash] = {}
        self._stalls: Dict[int, List[ObjectStall]] = {}
        self._spikes: Dict[Edge, List[DelaySpike]] = {}
        for e in self.events:
            if isinstance(e, LinkFailure):
                self._link_failures.setdefault((e.u, e.v), []).append(e)
            elif isinstance(e, NodeCrash):
                prev = self._crashes.get(e.node)
                if prev is None or e.time < prev.time:
                    self._crashes[e.node] = e  # earliest crash wins
            elif isinstance(e, ObjectStall):
                self._stalls.setdefault(e.obj, []).append(e)
            elif isinstance(e, DelaySpike):
                self._spikes.setdefault((e.u, e.v), []).append(e)
        #: links some failure or delay spike ever touches (``u < v``)
        self.faulty_links: FrozenSet[Edge] = frozenset(
            self._link_failures.keys() | self._spikes.keys()
        )
        #: objects some stall ever freezes
        self.stalled_objects: FrozenSet[int] = frozenset(self._stalls)

        if network is not None:
            self.validate_against(network)

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #

    def validate_against(self, network: Network) -> None:
        """Check every event names nodes and links ``network`` really has.

        Raises :class:`FaultError` for a link event on a non-edge or a
        crash of a nonexistent node, so a bad plan fails at construction
        (or at the start of a run) instead of as a mid-run ``KeyError``.
        Object stalls are not checked here -- objects belong to the
        instance, not the network.
        """
        for e in self.events:
            if isinstance(e, (LinkFailure, DelaySpike)):
                if not (0 <= e.u < network.n and 0 <= e.v < network.n):
                    raise FaultError(
                        f"fault event names unknown node: {e.describe()} "
                        f"(network has nodes 0..{network.n - 1})"
                    )
                if not network.has_edge(e.u, e.v):
                    raise FaultError(
                        f"fault event names unknown link: {e.describe()} "
                        f"(no edge ({e.u},{e.v}) in the network)"
                    )
            elif isinstance(e, NodeCrash):
                if not 0 <= e.node < network.n:
                    raise FaultError(
                        f"fault event names unknown node: {e.describe()} "
                        f"(network has nodes 0..{network.n - 1})"
                    )

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def is_empty(self) -> bool:
        """True iff the plan injects nothing (the healthy baseline)."""
        return not self.events

    @property
    def latest_time(self) -> int:
        """Last finite time any event starts or ends (0 for the empty plan).

        Permanent failures (``end=None``) contribute their start time.
        Used by runtimes to budget their step guards: past this point the
        fault landscape is static.
        """
        latest = 0
        for e in self.events:
            if isinstance(e, NodeCrash):
                latest = max(latest, e.time)
            elif isinstance(e, LinkFailure):
                latest = max(latest, e.start if e.end is None else e.end)
            else:
                latest = max(latest, e.end)
        return latest

    def index_of(self, event: FaultEvent) -> int:
        """Stable index of ``event`` within the plan (for attribution)."""
        return self._index[id(event)]

    def link_down(self, u: int, v: int, t: float) -> Optional[LinkFailure]:
        """The failure keeping link ``(u, v)`` down at ``t``, or None."""
        for e in self._link_failures.get(_edge(u, v), ()):
            if e.down_at(t):
                return e
        return None

    def down_edges(self, t: float) -> FrozenSet[Edge]:
        """All links down at time ``t``."""
        return frozenset(
            edge
            for edge, evs in self._link_failures.items()
            if any(e.down_at(t) for e in evs)
        )

    def permanent_down_edges(self, t: float) -> FrozenSet[Edge]:
        """Links down at ``t`` that will never repair."""
        return frozenset(
            edge
            for edge, evs in self._link_failures.items()
            if any(e.down_at(t) and e.end is None for e in evs)
        )

    def crash_time(self, node: int) -> Optional[int]:
        """When ``node`` crashes, or None if it survives the run."""
        e = self._crashes.get(node)
        return None if e is None else e.time

    @property
    def crash_events(self) -> Tuple[NodeCrash, ...]:
        """All node crashes (earliest per node), ordered by (time, node)."""
        return tuple(
            sorted(self._crashes.values(), key=lambda e: (e.time, e.node))
        )

    def crash_event(self, node: int) -> Optional[NodeCrash]:
        """The crash event for ``node``, or None."""
        return self._crashes.get(node)

    def stall(self, obj: int, t: float) -> Optional[ObjectStall]:
        """The stall freezing ``obj`` at time ``t``, or None."""
        for e in self._stalls.get(obj, ()):
            if e.stalled_at(t):
                return e
        return None

    def delay_factor(
        self, u: int, v: int, t: float
    ) -> Tuple[float, Optional[DelaySpike]]:
        """Worst delay factor on link ``(u, v)`` at ``t`` and its spike."""
        worst, cause = 1.0, None
        for e in self._spikes.get(_edge(u, v), ()):
            if e.active_at(t) and e.factor > worst:
                worst, cause = e.factor, e
        return worst, cause

    def describe(self, index: int) -> str:
        """Description of the event at ``index``."""
        return self.events[index].describe()

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kinds: Dict[str, int] = {}
        for e in self.events:
            kinds[type(e).__name__] = kinds.get(type(e).__name__, 0) + 1
        inner = ", ".join(f"{k}={n}" for k, n in sorted(kinds.items()))
        return f"FaultPlan({inner})"


def random_fault_plan(
    net: Network,
    horizon: int,
    rng: np.random.Generator,
    intensity: float = 1.0,
    link_rate: float = 0.15,
    crash_rate: float = 0.0,
    stall_rate: float = 0.1,
    spike_rate: float = 0.1,
    permanent_fraction: float = 0.0,
    objects: Iterable[int] = (),
    max_factor: float = 4.0,
) -> FaultPlan:
    """Draw a random fault workload for a run of length ``horizon``.

    Expected event counts scale linearly with ``intensity`` (``0`` yields
    the empty plan): ``link_rate * intensity * num_edges`` link failures,
    ``crash_rate * intensity * n`` node crashes, and so on.  Failure
    windows start uniformly in ``[1, horizon]`` and last a geometric
    ``~horizon/4`` tail; a ``permanent_fraction`` of link failures never
    repair.  Deterministic given ``rng`` -- the E17 experiment keys plans
    by (seed, topology, intensity, trial).
    """
    if intensity < 0:
        raise FaultError(f"intensity must be >= 0, got {intensity}")
    horizon = max(int(horizon), 1)
    events: List[FaultEvent] = []
    edges = [(u, v) for u, v, _ in net.edges()]
    objs = sorted(objects)

    def _count(rate: float, scale: int) -> int:
        return int(rng.poisson(rate * intensity * scale)) if scale else 0

    def _window(min_len: int = 1) -> Tuple[int, int]:
        start = int(rng.integers(1, horizon + 1))
        length = min_len + int(rng.geometric(min(1.0, 4.0 / horizon)))
        return start, start + length

    for _ in range(_count(link_rate, len(edges))):
        u, v = edges[int(rng.integers(len(edges)))]
        start, end = _window()
        if rng.random() < permanent_fraction:
            events.append(LinkFailure(u, v, start, None))
        else:
            events.append(LinkFailure(u, v, start, end))
    for _ in range(_count(crash_rate, net.n)):
        node = int(rng.integers(net.n))
        events.append(NodeCrash(node, int(rng.integers(1, horizon + 1))))
    for _ in range(_count(stall_rate, len(objs))):
        obj = objs[int(rng.integers(len(objs)))]
        start, end = _window()
        events.append(ObjectStall(obj, start, end))
    for _ in range(_count(spike_rate, len(edges))):
        u, v = edges[int(rng.integers(len(edges)))]
        start, end = _window(min_len=2)
        factor = 1.0 + float(rng.random()) * (max_factor - 1.0)
        events.append(DelaySpike(u, v, start, end, factor))
    return FaultPlan(events, network=net)
