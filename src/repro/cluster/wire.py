"""The one IPC schema: versioned JSON envelopes over process pipes.

Every byte that crosses a process boundary in this repo -- a sweep
cell's result (:mod:`repro.experiments.sweep`) or a cluster worker's
heartbeat, window result, and final report (:mod:`repro.cluster`) --
is a single-line JSON document in the standard
``{"schema_version", "kind", "body"}`` envelope from
:func:`repro.io.serialize.json_payload`, read by
:func:`repro.io.serialize.decode_envelope`.  This module adds only the
one-line framing and the kinds a pipe may carry, so there is exactly
one wire schema, tested once.

Messages are strings (not pickled objects) on purpose: the payload is
inspectable in journals and logs, a version bump is an explicit schema
change, and a corrupted frame fails with a typed
:class:`~repro.errors.ClusterError` naming the problem instead of an
unpickling traceback.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from ..errors import ClusterError, ReproError
from ..io.serialize import decode_envelope, dumps_line, json_payload

__all__ = [
    "CELL_KIND",
    "MSG_HELLO",
    "MSG_WINDOW",
    "MSG_DONE",
    "MSG_ERROR",
    "WIRE_KINDS",
    "encode_message",
    "decode_message",
]

#: one sweep worker's enveloped cell result (``experiments/sweep.py``)
CELL_KIND = "sweep_cell"

#: cluster worker start/recovery announcement (doubles as first heartbeat)
MSG_HELLO = "cluster_hello"
#: one committed window's result -- the cluster's per-window heartbeat
MSG_WINDOW = "cluster_window"
#: a worker's final :class:`~repro.service.ServiceReport`
MSG_DONE = "cluster_done"
#: a worker's typed failure notice (sent before the process dies)
MSG_ERROR = "cluster_error"

#: every kind that may legally appear on a pipe
WIRE_KINDS = (CELL_KIND, MSG_HELLO, MSG_WINDOW, MSG_DONE, MSG_ERROR)


def encode_message(kind: str, body: Dict[str, Any]) -> str:
    """Envelope ``body`` as a single-line wire message of ``kind``."""
    if kind not in WIRE_KINDS:
        raise ClusterError(
            f"unknown wire kind {kind!r}; choose from {WIRE_KINDS}"
        )
    return dumps_line(json_payload(kind, body))


def decode_message(
    text: str, expected_kind: str | None = None
) -> Tuple[str, Dict[str, Any]]:
    """Parse and validate one wire message; returns ``(kind, body)``.

    Raises :class:`~repro.errors.ClusterError` on anything
    :func:`~repro.io.serialize.decode_envelope` rejects and on a kind
    not in :data:`WIRE_KINDS`.
    """
    try:
        kind, body = decode_envelope(text, expected_kind, label="wire")
    except ReproError as exc:
        raise ClusterError(str(exc)) from exc
    if kind not in WIRE_KINDS:
        raise ClusterError(
            f"unknown wire kind {kind!r}; choose from {WIRE_KINDS}"
        )
    return kind, body
