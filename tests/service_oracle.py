"""Per-entry admission and commit: the oracle of the service's slices.

:class:`repro.service.SchedulingService` settles a window's releases
(``_admit_all``) and commits (``_commit_all``) in slices: one gate
update, the admitted prefix, one policy for the rest, and bulk updates
of the commit and sojourn records.  This module keeps the plain form
those slices replace -- one release, one gate update and one commit at
a time -- and :func:`patched` installs it in their place, so a test can
run the same service both ways and require identical reports,
snapshots, recorded events and errors
(``tests/test_service_property.py``).
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List

import pytest

from repro.errors import OverloadError
from repro.obs import events as obs_events
from repro.service import SchedulingService

__all__ = ["patched"]


def _admit(service, entry, now: int, window_index: int) -> None:
    """Route one release through the backpressure gate."""
    txn = entry.txn
    if txn.node in service._dead:
        service._lose(txn.tid, f"node {txn.node} crashed", now)
        return
    gone = set(txn.objects) & service._unrecoverable
    if gone:
        service._lose(txn.tid, f"objects {sorted(gone)} unrecoverable", now)
        return
    service._update_gate()
    policy = "shed" if service.detector.saturated else service.config.admission
    rec = service._rec
    backlog = service._backlog
    if service._gate_open:
        entry.eligible_window = max(entry.eligible_window, window_index)
        backlog.append(entry)
        service._admitted += 1
        if rec.enabled:
            rec.record(obs_events.AdmissionEvent(
                now, txn.tid, "admit", len(backlog)))
            rec.count("service.admitted")
        return
    if policy == "strict":
        raise OverloadError(
            f"window {window_index}: release of transaction {txn.tid} "
            f"with backlog {len(backlog)} >= high-water "
            f"{service.config.high_water}"
        )
    if policy == "shed":
        service._shed += 1
        if rec.enabled:
            rec.record(obs_events.AdmissionEvent(
                now, txn.tid, "shed", len(backlog)))
            rec.count("service.shed")
        return
    service._deferred.append(entry)
    service._deferred_admissions += 1
    if rec.enabled:
        rec.record(obs_events.AdmissionEvent(
            now, txn.tid, "defer", len(backlog)))
        rec.count("service.deferred")


def _record_commit(service, entry, global_time: int) -> None:
    service._commits[entry.txn.tid] = global_time
    service._sojourns[global_time - entry.release] += 1
    rec = service._rec
    if rec.enabled:
        rec.record(obs_events.CommitEvent(
            global_time, entry.txn.tid, entry.txn.node,
            tuple(sorted(entry.txn.objects))))
        rec.count("service.commits")
        rec.observe("service.sojourn", global_time - entry.release)


def admit_all(service, entries: List, now: int, window_index: int) -> None:
    """``_admit_all`` one release at a time."""
    for entry in entries:
        _admit(service, entry, now, window_index)


def commit_all(service, by_tid: Dict, commits: Dict[int, int],
               offset: int) -> None:
    """``_commit_all`` one commit at a time."""
    for tid, ct in sorted(commits.items()):
        _record_commit(service, by_tid[tid], offset + ct)


@contextlib.contextmanager
def patched() -> Iterator[None]:
    """Run every :class:`SchedulingService` on the per-entry oracle."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SchedulingService, "_admit_all", admit_all)
        mp.setattr(SchedulingService, "_commit_all", commit_all)
        yield
