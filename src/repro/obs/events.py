"""Typed trace events: the vocabulary of the observability layer.

Every instrumented runtime (:func:`repro.sim.execute`,
:func:`repro.online.run_resilient`, :func:`repro.faults.faulty_execute`)
narrates what it does as a stream of these records.  Each event is a
small frozen dataclass with an integer simulation ``time`` plus
kind-specific fields; the ``kind`` string is the stable wire name used
by the JSON/CSV exporters (:mod:`repro.obs.export`), so renaming a class
never breaks saved traces.

The set is deliberately closed: :data:`EVENT_TYPES` maps every wire kind
to its class, and :func:`event_from_dict` refuses unknown kinds with a
typed :class:`~repro.errors.ReproError` instead of guessing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Tuple, Union

from ..errors import ReproError

__all__ = [
    "HopEvent",
    "CommitEvent",
    "RetryEvent",
    "RerouteEvent",
    "LeaseRecoveryEvent",
    "AdmissionEvent",
    "DispatchEvent",
    "CrashEvent",
    "LostEvent",
    "SessionDeltaEvent",
    "TraceEvent",
    "EVENT_TYPES",
    "event_to_dict",
    "event_from_dict",
]


@dataclass(frozen=True)
class HopEvent:
    """An object traversed one edge, entering it at ``time``."""

    kind: ClassVar[str] = "hop"
    time: int
    obj: int
    src: int
    dst: int


@dataclass(frozen=True)
class CommitEvent:
    """A transaction committed with all its objects on-node."""

    kind: ClassVar[str] = "commit"
    time: int
    tid: int
    node: int
    objects: Tuple[int, ...]


@dataclass(frozen=True)
class RetryEvent:
    """A blocked move backed off: probe ``attempt`` waits ``wait`` steps."""

    kind: ClassVar[str] = "retry"
    time: int
    obj: int
    node: int
    attempt: int
    wait: int


@dataclass(frozen=True)
class RerouteEvent:
    """An object took a detour because its shortest path was down."""

    kind: ClassVar[str] = "reroute"
    time: int
    obj: int
    src: int
    dst: int


@dataclass(frozen=True)
class LeaseRecoveryEvent:
    """A crashed node's object lease was restored from its durable home.

    ``recovered`` is False when the home itself was dead, i.e. the object
    became unrecoverable.
    """

    kind: ClassVar[str] = "lease_recovery"
    time: int
    obj: int
    node: int
    home: int
    recovered: bool


@dataclass(frozen=True)
class AdmissionEvent:
    """Admission control ruled on a release: admit / defer / shed."""

    kind: ClassVar[str] = "admission"
    time: int
    tid: int
    decision: str
    pending: int


@dataclass(frozen=True)
class DispatchEvent:
    """An idle object was sent toward its highest-priority requester."""

    kind: ClassVar[str] = "dispatch"
    time: int
    obj: int
    src: int
    dst: int
    tid: int


@dataclass(frozen=True)
class CrashEvent:
    """A node's compute plane died (its leases die with it)."""

    kind: ClassVar[str] = "crash"
    time: int
    node: int


@dataclass(frozen=True)
class LostEvent:
    """A transaction became uncommittable and was dropped with a reason."""

    kind: ClassVar[str] = "lost"
    time: int
    tid: int
    reason: str


@dataclass(frozen=True)
class SessionDeltaEvent:
    """A scheduler session applied a delta (submit / commit / abort).

    ``time`` is the session epoch the delta landed in, ``count`` the
    number of transactions in the delta, ``dirty`` how many vertices the
    repair frontier examined, ``repaired`` how many actually changed
    slot, and ``rebuilt`` whether the bounded frontier gave up and fell
    back to a full recolor of the live window.
    """

    kind: ClassVar[str] = "session_delta"
    time: int
    op: str
    count: int
    dirty: int
    repaired: int
    rebuilt: bool


TraceEvent = Union[
    HopEvent,
    CommitEvent,
    RetryEvent,
    RerouteEvent,
    LeaseRecoveryEvent,
    AdmissionEvent,
    DispatchEvent,
    CrashEvent,
    LostEvent,
    SessionDeltaEvent,
]

#: wire kind -> event class (the closed vocabulary)
EVENT_TYPES: Dict[str, type] = {
    cls.kind: cls
    for cls in (
        HopEvent,
        CommitEvent,
        RetryEvent,
        RerouteEvent,
        LeaseRecoveryEvent,
        AdmissionEvent,
        DispatchEvent,
        CrashEvent,
        LostEvent,
        SessionDeltaEvent,
    )
}


def event_to_dict(event: TraceEvent) -> Dict[str, Any]:
    """Plain-data form of an event (tuples become lists, JSON-safe)."""
    rec: Dict[str, Any] = {"kind": event.kind}
    for f in dataclasses.fields(event):
        value = getattr(event, f.name)
        if isinstance(value, tuple):
            value = list(value)
        rec[f.name] = value
    return rec


def event_from_dict(data: Dict[str, Any]) -> TraceEvent:
    """Inverse of :func:`event_to_dict`.

    Raises :class:`~repro.errors.ReproError` on an unknown event kind.
    """
    kind = data.get("kind")
    try:
        cls = EVENT_TYPES[kind]
    except KeyError:
        raise ReproError(
            f"unknown trace event kind {kind!r}; expected one of "
            f"{sorted(EVENT_TYPES)}"
        ) from None
    fields = {}
    for f in dataclasses.fields(cls):
        value = data[f.name]
        if isinstance(value, list):
            value = tuple(value)
        fields[f.name] = value
    return cls(**fields)
