"""The unified ``Report`` protocol: one shape for every measurement.

The repo produces three report dataclasses -- offline
:class:`~repro.analysis.metrics.Evaluation`, faulty-replay
:class:`~repro.faults.report.DegradationReport`, and live
:class:`~repro.online.report.OnlineDegradationReport`.  They grew
independently, so tooling (CLI export, benchmarks, tests) had to know
each one's quirks.  This module unifies them behind a structural
:class:`Report` protocol:

* ``as_dict()`` -- flat plain-data summary for table rendering,
* ``to_json()`` -- a *full-fidelity* JSON envelope
  (``{"schema_version", "kind", "body": {...}}``),
* ``from_json()`` -- classmethod inverse of ``to_json``.

Kinds are registered with the :func:`register_report` class decorator;
:func:`report_from_json` dispatches an envelope of any registered kind
back to the right class, so callers can round-trip a report without
knowing its concrete type.  The envelope is :mod:`repro.io.serialize`'s,
imported inside the functions to avoid an import cycle.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Protocol, TypeVar, runtime_checkable

from ..errors import ReproError

__all__ = [
    "REPORT_KINDS",
    "Report",
    "register_report",
    "report_to_json",
    "report_payload",
    "report_from_json",
]

#: kind -> report class; populated by :func:`register_report`.
REPORT_KINDS: Dict[str, type] = {}

_ReportClass = TypeVar("_ReportClass", bound=type)


def register_report(kind: str) -> Callable[[_ReportClass], _ReportClass]:
    """Class decorator: register a report dataclass under ``kind``.

    The kind is the wire name used in JSON envelopes; it must be unique
    across the package (a duplicate registration is a programming error
    and raises immediately).  The decorated class gains a ``report_kind``
    class attribute; declare it ``ClassVar[str]`` on the dataclass so
    type checkers see it.
    """

    def decorate(cls: _ReportClass) -> _ReportClass:
        existing = REPORT_KINDS.get(kind)
        if existing is not None and existing is not cls:
            raise ReproError(
                f"report kind {kind!r} already registered to "
                f"{existing.__name__}"
            )
        setattr(cls, "report_kind", kind)
        REPORT_KINDS[kind] = cls
        return cls

    return decorate


@runtime_checkable
class Report(Protocol):
    """Structural interface every report satisfies.

    ``as_dict`` feeds tables (flat summary, may round), ``to_json`` /
    ``from_json`` round-trip the *complete* field set losslessly.
    """

    def as_dict(self) -> dict[str, object]: ...

    def to_json(self) -> str: ...

    @classmethod
    def from_json(cls, text: str) -> "Report": ...


def report_to_json(report: Any) -> str:
    """Serialize ``report`` into the versioned JSON envelope.

    The body is ``dataclasses.asdict`` of the full field set (tuples
    become JSON arrays) under the report's registered kind, so
    :func:`report_from_json` can dispatch it back.  Keys are sorted and
    the text is stable across runs.
    """
    from ..io.serialize import dumps_canonical, json_payload

    kind = getattr(report, "report_kind", None)
    if kind is None or REPORT_KINDS.get(kind) is not type(report):
        raise ReproError(
            f"{type(report).__name__} is not a registered report class"
        )
    return dumps_canonical(json_payload(kind, dataclasses.asdict(report)))


def _decode_report(
    text: str, expected_kind: str | None = None
) -> tuple[str, Dict[str, Any]]:
    from ..io.serialize import decode_envelope

    kind, body = decode_envelope(text, expected_kind, label="report")
    if kind not in REPORT_KINDS:
        raise ReproError(f"unknown report kind {kind!r}")
    return kind, body


def report_payload(text: str, expected_kind: str | None = None) -> Dict[str, Any]:
    """Decode a report envelope and return its body.

    Raises :class:`ReproError` on anything
    :func:`~repro.io.serialize.decode_envelope` rejects and on an
    unregistered kind.
    """
    return _decode_report(text, expected_kind)[1]


def report_from_json(text: str) -> Any:
    """Deserialize any registered report kind from its JSON envelope."""
    _ensure_kinds_registered()
    kind, _ = _decode_report(text)
    return REPORT_KINDS[kind].from_json(text)


def _ensure_kinds_registered() -> None:
    """Import the modules that define report classes (idempotent)."""
    from . import metrics  # noqa: F401
    from ..cluster import report as _cluster_report  # noqa: F401
    from ..experiments import sweep as _sweep_report  # noqa: F401
    from ..faults import report as _faults_report  # noqa: F401
    from ..online import report as _online_report  # noqa: F401
    from ..service import report as _service_report  # noqa: F401
