"""Per-worker write-ahead window journal and checkpoint.

Recovery contract: a worker's execution is fully deterministic given
its spec (stream seed, shard, service config), so its *state* never
needs to cross a process boundary -- only its *progress* does.  The
journal records that progress durably:

* after every committed window, one append-only JSONL record
  ``{window, digest, cumulative}`` -- the window index, a SHA-256
  digest of the service's cumulative accounting, and the accounting
  counters themselves;
* every ``checkpoint_every`` windows, a full
  :meth:`~repro.service.SchedulingService.snapshot_state` checkpoint,
  written atomically (temp file + rename) so a crash mid-checkpoint
  leaves the previous one intact.

A restarted worker loads the newest checkpoint, re-executes the
journaled windows after it (deterministic, so bit-identical), verifies
each re-executed window's digest against the journal -- divergence is a
determinism bug and raises :class:`~repro.errors.ClusterError` rather
than silently corrupting the run -- and resumes live at the first
un-journaled window.  The cluster therefore commits exactly the same
transaction set with or without the crash.

Both files use the standard versioned JSON envelopes
(:func:`repro.io.serialize.json_payload`).  A torn final journal line
from a crash mid-append is dropped by
:func:`repro.io.serialize.read_jsonl` (the window either journaled
completely or never happened) and cut off the file by
:meth:`WindowJournal.load`, so the next append starts a fresh line; any
other unreadable line raises :class:`~repro.errors.ReproError`.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ClusterError
from ..io.serialize import (
    append_jsonl,
    dumps_line,
    json_payload,
    read_json,
    read_jsonl,
)

__all__ = ["WindowJournal", "accounting_digest"]

#: envelope kind of one journaled window record
JOURNAL_KIND = "cluster_journal"
#: envelope kind of a checkpoint document
CHECKPOINT_KIND = "cluster_checkpoint"


def accounting_digest(cumulative: Dict[str, Any]) -> str:
    """Short stable digest of one window's cumulative accounting."""
    return hashlib.sha256(
        dumps_line(dict(cumulative)).encode("utf-8")
    ).hexdigest()[:16]


class WindowJournal:
    """Append-only window WAL plus an atomically-replaced checkpoint.

    One journal belongs to one worker id for the lifetime of a cluster
    run; successive incarnations of the worker (after crashes) reopen
    the same files.  ``append`` must be called *after* the window's
    effects are final -- the record is the commit point.
    """

    def __init__(self, journal_path: str | Path, checkpoint_path: str | Path) -> None:
        self.journal_path = Path(journal_path)
        self.checkpoint_path = Path(checkpoint_path)

    def has_history(self) -> bool:
        """True iff a previous incarnation journaled anything."""
        return self.journal_path.exists() or self.checkpoint_path.exists()

    def append(
        self, window: int, digest: str, cumulative: Dict[str, Any]
    ) -> None:
        """Durably record one committed window (the WAL commit point)."""
        append_jsonl(
            self.journal_path,
            JOURNAL_KIND,
            {"window": int(window), "digest": digest,
             "cumulative": dict(cumulative)},
        )

    def checkpoint(self, window: int, state: Dict[str, Any]) -> None:
        """Atomically replace the checkpoint with state *after* ``window``.

        ``state`` is a full service snapshot taken at the boundary after
        window ``window`` committed; the temp-file + ``os.replace`` dance
        guarantees a crash mid-write preserves the previous checkpoint.
        The document is single-line JSON (``json``'s C encoder; an
        indented one takes its pure-Python path); :meth:`load` reads
        either form.
        """
        doc = dumps_line(
            json_payload(
                CHECKPOINT_KIND,
                {"window": int(window), "state": state},
            )
        )
        tmp = self.checkpoint_path.with_suffix(".tmp")
        tmp.write_text(doc, encoding="utf-8")
        os.replace(tmp, self.checkpoint_path)

    def load(self) -> Tuple[Optional[Dict[str, Any]], List[Dict[str, Any]]]:
        """Read ``(checkpoint_body | None, journal records past it)``.

        Only the owning worker calls this, on recovery: it first cuts a
        torn (unterminated) final line off the file.

        Records are returned sorted by window, de-duplicated (replays
        re-verify rather than re-append, but a crash between append and
        send may leave the same window journaled once -- never twice with
        different digests), and filtered to windows at or beyond the
        checkpoint (window 0 without one).  A contiguity gap means the
        journal was externally mutilated and raises
        :class:`~repro.errors.ClusterError`.
        """
        ckpt: Optional[Dict[str, Any]] = None
        if self.checkpoint_path.exists():
            ckpt = read_json(self.checkpoint_path, CHECKPOINT_KIND)
        records: List[Dict[str, Any]] = []
        if self.journal_path.exists():
            with open(self.journal_path, "r+b") as fh:
                data = fh.read()
                if not data.endswith(b"\n"):
                    fh.truncate(data.rfind(b"\n") + 1)
            records = read_jsonl(self.journal_path, JOURNAL_KIND)
        by_window: Dict[int, Dict[str, Any]] = {}
        for rec in records:
            w = int(rec["window"])
            prev = by_window.get(w)
            if prev is not None and prev["digest"] != rec["digest"]:
                raise ClusterError(
                    f"journal {self.journal_path} has conflicting records "
                    f"for window {w}: {prev['digest']} != {rec['digest']}"
                )
            by_window[w] = rec
        floor = int(ckpt["window"]) if ckpt is not None else 0
        tail = [by_window[w] for w in sorted(by_window) if w >= floor]
        expect = floor
        for rec in tail:
            if int(rec["window"]) != expect:
                raise ClusterError(
                    f"journal {self.journal_path} has a gap: expected "
                    f"window {expect}, found {rec['window']}"
                )
            expect += 1
        return ckpt, tail
