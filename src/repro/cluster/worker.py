"""The cluster worker process: shard service, journal, chaos, wire.

A worker is one forked process running a
:class:`~repro.service.SchedulingService` over its residue-class shard
of the shared arrival stream.  Everything it needs is in its
:class:`WorkerSpec` -- so a restarted incarnation rebuilds the *same*
deterministic world from the spec alone, recovers its progress from the
journal, and resumes as if nothing happened.

The loop per window is strictly ordered:

1. inject any chaos event pinned to this ``(worker, window)``
   (kill = ``os._exit`` with no goodbye; stall/delay = ``time.sleep``);
2. execute the window;
3. journal it (the durable commit point);
4. checkpoint every ``checkpoint_every`` windows;
5. send the ``cluster_window`` message -- the supervisor's heartbeat.

Because the journal append precedes the send, the supervisor's view can
lag the journal by at most one window; recovery always trusts the
journal, never the supervisor's memory.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..errors import ClusterError, ReproError
from ..network.registry import network_from_sizes
from ..service import SchedulingService, ServiceConfig
from .chaos import ChaosEvent, WorkerDelay, WorkerKill, WorkerStall
from .journal import WindowJournal, accounting_digest
from .shard import ShardedStream, StreamSpec
from .wire import MSG_DONE, MSG_ERROR, MSG_HELLO, MSG_WINDOW, encode_message

__all__ = ["WorkerSpec", "worker_main"]

#: exit status of a chaos-killed worker (distinguishes injected kills
#: from genuine crashes in logs; the supervisor treats both the same)
KILL_EXIT_STATUS = 17


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one worker incarnation needs to rebuild its world.

    Worker ``worker`` owns residue class ``worker`` of ``shards`` from
    window 0.  ``chaos`` holds only this worker's events, already
    stripped of anything that fired in a previous incarnation.
    """

    worker: int
    shards: int
    topology: str
    size: int
    size2: Optional[int]
    stream: StreamSpec
    service: ServiceConfig
    windows: int
    journal_path: str
    checkpoint_path: str
    checkpoint_every: int
    chaos: Tuple[ChaosEvent, ...] = field(default_factory=tuple)

    def build_service(self) -> SchedulingService:
        """Deterministically rebuild this worker's sharded service."""
        net = network_from_sizes(self.topology, self.size, self.size2)
        base = self.stream.build(net)
        sharded = ShardedStream(
            base, self.shards, self.worker, assign=self.stream.assign
        )
        return SchedulingService(sharded, self.service)


def _accounting(service: SchedulingService) -> Dict[str, int]:
    """The service's conservation counters plus the cross-shard tally.

    The single accounting view the worker journals, digests, and ships:
    journal digests in :func:`worker_main` and the replay verification
    in :func:`_recover` MUST both go through this helper, or a recovered
    worker's digest diverges from the one it journaled.
    """
    counters = service.accounting()
    counters["cross"] = int(getattr(service.stream, "cross_released", 0))
    return counters


def _recover(
    service: SchedulingService, journal: WindowJournal, spec: WorkerSpec
) -> int:
    """Restore checkpoint, replay journaled windows, verify digests.

    Returns the number of windows replayed (journal tail length).  The
    replay re-executes each journaled window deterministically; a digest
    mismatch means the rebuild diverged from the incarnation that
    journaled it -- a determinism bug -- and raises
    :class:`~repro.errors.ClusterError` rather than silently forking
    history.
    """
    ckpt, tail = journal.load()
    if ckpt is not None:
        service.restore_state(ckpt["state"])
    for rec in tail:
        window = int(rec["window"])
        if window != service.windows_run:
            raise ClusterError(
                f"worker {spec.worker}: journal replay expected window "
                f"{service.windows_run}, found {window}"
            )
        service.run_window(window)
        digest = accounting_digest(_accounting(service))
        if digest != rec["digest"]:
            raise ClusterError(
                f"worker {spec.worker}: replay of window {window} "
                f"diverged from the journal (digest {digest} != "
                f"{rec['digest']}); deterministic recovery is broken"
            )
    return len(tail)


def worker_main(conn: Any, spec: WorkerSpec) -> None:
    """Entry point of one worker process (also callable in-process).

    ``conn`` is the send end of the supervisor's pipe; every message is
    a versioned single-line JSON envelope from :mod:`repro.cluster.wire`.
    On any :class:`~repro.errors.ReproError` the worker sends a typed
    ``cluster_error`` notice before dying, so the supervisor can
    distinguish a logic failure (raise) from a crash (restart).
    """
    try:
        service = spec.build_service()
        journal = WindowJournal(spec.journal_path, spec.checkpoint_path)
        replayed = 0
        if journal.has_history():
            replayed = _recover(service, journal, spec)
        conn.send(encode_message(MSG_HELLO, {
            "worker": spec.worker,
            "pid": os.getpid(),
            "resumed_at": service.windows_run,
            "replayed": replayed,
        }))
        chaos_at = {e.window: e for e in spec.chaos}
        for window in range(service.windows_run, spec.windows):
            event = chaos_at.get(window)
            if isinstance(event, WorkerKill):
                os._exit(KILL_EXIT_STATUS)
            if isinstance(event, (WorkerStall, WorkerDelay)):
                time.sleep(event.seconds)
            service.run_window(window)
            cumulative = _accounting(service)
            digest = accounting_digest(cumulative)
            journal.append(window, digest, cumulative)
            if (window + 1) % spec.checkpoint_every == 0:
                journal.checkpoint(window + 1, service.snapshot_state())
            conn.send(encode_message(MSG_WINDOW, {
                "worker": spec.worker,
                "window": window,
                "digest": digest,
                "cumulative": cumulative,
            }))
        conn.send(encode_message(MSG_DONE, {
            "worker": spec.worker,
            "replayed": replayed,
            "report": service.report().to_json(),
            "sojourns": service.sojourn_histogram(),
            "accounting": _accounting(service),
        }))
        conn.close()
    except ReproError as exc:
        try:
            conn.send(encode_message(MSG_ERROR, {
                "worker": spec.worker,
                "error": type(exc).__name__,
                "message": str(exc),
            }))
            conn.close()
        except (OSError, BrokenPipeError):  # pragma: no cover - dying pipe
            pass
        raise SystemExit(1)
