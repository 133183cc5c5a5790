"""The cluster supervisor: fork, watch, restart, merge.

:func:`run_cluster` forks one worker process per residue class of the
shared arrival stream, then runs a single event loop over the workers'
pipes and process sentinels:

* every ``cluster_window`` message is both a result and a heartbeat --
  it advances the worker's journaled-progress watermark and resets its
  liveness clock;
* a dead process (sentinel fired, no ``cluster_done``) and a
  silent-but-alive one past ``heartbeat_timeout_s`` (a **straggler**,
  killed first) take one recovery path: within the per-worker
  :class:`~repro.faults.backoff.RetryPolicy` budget the worker is
  restarted -- after a deterministic backoff -- from its journal, with
  already-fired chaos events stripped so an injected kill or stall
  cannot re-fire after replay; past the budget it is retired with its
  journaled backlog counted ``lost``, and so are the arrivals of its
  residue class in the windows it never ran, which the supervisor
  redraws from the stream spec so that ``released`` matches the
  fault-free run's.

Recovery acts at window boundaries and replays a deterministic journal,
so although *detection* is wall-clock, the recovered *outcome* is not:
a kill-chaos run produces a :class:`~repro.cluster.ClusterReport` whose
:meth:`~repro.cluster.ClusterReport.parity_key` is bit-identical to the
fault-free run's.
"""

from __future__ import annotations

import multiprocessing as mp
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait as connection_wait
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ClusterError
from ..network.registry import network_from_sizes
from ..obs.recorder import Recorder, active
from ..service import ServiceConfig
from ..service.report import sojourn_summary
from .chaos import ChaosPlan
from .config import ClusterConfig
from .report import ClusterReport
from .shard import ShardedStream, StreamSpec
from .wire import MSG_DONE, MSG_ERROR, MSG_HELLO, MSG_WINDOW, decode_message
from .worker import WorkerSpec, worker_main

__all__ = ["run_cluster"]


_EMPTY_ACCOUNTING = {
    "released": 0, "committed": 0, "shed": 0,
    "expired": 0, "lost": 0, "backlog": 0, "cross": 0,
}


@dataclass
class _Worker:
    """One worker slot's live supervision state (spans incarnations)."""

    spec: WorkerSpec
    proc: Any = None
    conn: Any = None
    restarts: int = 0
    last_heard: float = 0.0
    last_window: int = -1  # highest window the supervisor saw journaled
    cumulative: Dict[str, int] = field(
        default_factory=lambda: dict(_EMPTY_ACCOUNTING)
    )
    replayed: int = 0
    end: Optional[str] = None  # None while live; "done"|"retired"
    sojourns: Dict[int, int] = field(default_factory=dict)  # value -> count
    final: Optional[Dict[str, int]] = None

    @property
    def live(self) -> bool:
        return self.end is None


class _Supervisor:
    """Implementation of :func:`run_cluster` (one instance per call)."""

    def __init__(
        self,
        topology: str,
        size: int,
        size2: Optional[int],
        stream: StreamSpec,
        service: ServiceConfig,
        config: ClusterConfig,
        chaos: ChaosPlan,
        recorder: Optional[Recorder],
    ) -> None:
        chaos.validate_against(config.workers, config.windows)
        self.topology, self.size, self.size2 = topology, size, size2
        self.stream, self.service, self.config = stream, service, config
        self.chaos = chaos
        self.rec = active(recorder)
        self.ctx = mp.get_context("fork")
        self.workers: List[_Worker] = []
        self.total_restarts = 0
        self.stragglers = 0

    # ------------------------------------------------------------------ #
    # spawning
    # ------------------------------------------------------------------ #

    def _initial_spec(self, worker: int, journal_dir: Path) -> WorkerSpec:
        return WorkerSpec(
            worker=worker,
            shards=self.config.workers,
            topology=self.topology,
            size=self.size,
            size2=self.size2,
            stream=self.stream,
            service=self.service,
            windows=self.config.windows,
            journal_path=str(journal_dir / f"worker-{worker}.journal.jsonl"),
            checkpoint_path=str(journal_dir / f"worker-{worker}.ckpt.json"),
            checkpoint_every=self.config.checkpoint_every,
            chaos=self.chaos.for_worker(worker),
        )

    def _spawn(self, state: _Worker) -> None:
        recv, send = self.ctx.Pipe(duplex=False)
        proc = self.ctx.Process(
            target=worker_main,
            args=(send, state.spec),
            name=f"cluster-worker-{state.spec.worker}",
            daemon=True,
        )
        proc.start()
        send.close()  # the child holds the send end now
        state.proc, state.conn = proc, recv
        state.last_heard = time.monotonic()

    # ------------------------------------------------------------------ #
    # failure handling
    # ------------------------------------------------------------------ #

    def _reap(self, state: _Worker) -> None:
        if state.conn is not None:
            state.conn.close()
            state.conn = None
        if state.proc is not None:
            state.proc.join(timeout=5.0)
            state.proc = None

    def _unrun_arrivals(self, state: _Worker) -> Tuple[int, int]:
        """Owned and owned cross-shard arrivals after ``last_window``.

        The supervisor redraws the worker's shard of the stream from the
        spec, as every incarnation does.  The draw is sequential, so it
        reads every window from 0; it needs no distances.
        """
        net = network_from_sizes(self.topology, self.size, self.size2)
        stream = ShardedStream(
            self.stream.build(net), self.config.workers, state.spec.worker,
            assign=self.stream.assign,
        )
        w = self.service.window
        ran = state.last_window + 1
        for window in range(ran):
            stream.window(window * w, (window + 1) * w)
        released, cross = stream.released, stream.cross_released
        for window in range(ran, self.config.windows):
            stream.window(window * w, (window + 1) * w)
        return stream.released - released, stream.cross_released - cross

    def _restart_or_retire(self, state: _Worker) -> None:
        """Restart a dead or silent worker from its journal, or retire it.

        A process still alive (a straggler) is killed first.  Within the
        restart budget the slot restarts after a deterministic backoff,
        stripped of the chaos events at or before the window it was on:
        they already fired (the kill that killed it fired *at* that
        window) and must not re-fire when replay reaches it again.  Past
        the budget the slot is retired: its journaled backlog and its
        class's arrivals in the windows it never ran are counted
        released (the latter) and ``lost``.
        """
        if state.proc is not None and state.proc.is_alive():
            state.proc.kill()
        self._reap(state)
        retry = self.config.retry
        if state.restarts >= retry.max_retries:
            unrun, cross = self._unrun_arrivals(state)
            state.end = "retired"
            state.final = dict(state.cumulative)
            state.final["released"] += unrun
            state.final["cross"] += cross
            state.final["lost"] += state.final.pop("backlog") + unrun
            state.final["backlog"] = 0
            self.rec.count("cluster.retired")
            return
        failed_window = state.last_window + 1
        state.spec = replace(
            state.spec,
            chaos=tuple(
                e for e in state.spec.chaos if e.window > failed_window
            ),
        )
        time.sleep(retry.wait(state.restarts) * self.config.restart_backoff_s)
        state.restarts += 1
        self.total_restarts += 1
        self.rec.count("cluster.restarts")
        self._spawn(state)

    # ------------------------------------------------------------------ #
    # message handling
    # ------------------------------------------------------------------ #

    def _on_message(self, state: _Worker, text: str) -> None:
        kind, body = decode_message(text)
        state.last_heard = time.monotonic()
        if kind == MSG_HELLO:
            state.replayed += int(body["replayed"])
        elif kind == MSG_WINDOW:
            state.last_window = max(state.last_window, int(body["window"]))
            state.cumulative = {
                k: int(v) for k, v in body["cumulative"].items()
            }
            self.rec.count("cluster.windows")
        elif kind == MSG_DONE:
            state.end = "done"
            state.sojourns = {int(v): int(c) for v, c in body["sojourns"]}
            state.final = {k: int(v) for k, v in body["accounting"].items()}
            self._reap(state)
        elif kind == MSG_ERROR:
            self._reap(state)
            raise ClusterError(
                f"worker {body['worker']} failed with {body['error']}: "
                f"{body['message']}"
            )

    # ------------------------------------------------------------------ #
    # the event loop
    # ------------------------------------------------------------------ #

    def _drain(self, state: _Worker) -> bool:
        """Read every buffered message from one pipe; False on EOF."""
        while state.conn is not None and state.conn.poll():
            try:
                text = state.conn.recv()
            except EOFError:
                return False
            self._on_message(state, text)
        return True

    def run(self, journal_dir: Path) -> None:
        self.workers = [
            _Worker(spec=self._initial_spec(i, journal_dir))
            for i in range(self.config.workers)
        ]
        for state in self.workers:
            self._spawn(state)
        try:
            while any(w.live for w in self.workers):
                live = [w for w in self.workers if w.live]
                waitables = [w.conn for w in live if w.conn is not None]
                waitables += [
                    w.proc.sentinel for w in live if w.proc is not None
                ]
                connection_wait(waitables, timeout=self.config.poll_interval_s)
                now = time.monotonic()
                for state in list(live):
                    if not state.live:
                        continue
                    eof = not self._drain(state)
                    if not state.live:
                        continue
                    dead = state.proc is not None and not state.proc.is_alive()
                    if eof or dead:
                        # the pipe may have delivered DONE between the
                        # drain and the exit; drain once more to be sure
                        self._drain(state)
                        if state.live:
                            self._restart_or_retire(state)
                        continue
                    if (
                        now - state.last_heard
                        > self.config.heartbeat_timeout_s
                    ):
                        self.stragglers += 1
                        self.rec.count("cluster.stragglers")
                        self._restart_or_retire(state)
        finally:
            for state in self.workers:
                if state.proc is not None and state.proc.is_alive():
                    state.proc.kill()
                self._reap(state)

    # ------------------------------------------------------------------ #
    # merging
    # ------------------------------------------------------------------ #

    def merge(self, wall_s: float) -> ClusterReport:
        totals = dict(_EMPTY_ACCOUNTING)
        sojourns: Counter[int] = Counter()
        per_worker: List[Dict[str, Any]] = []
        for state in self.workers:
            final = state.final if state.final is not None else dict(
                state.cumulative
            )
            for key, value in final.items():
                totals[key] += value
            sojourns.update(state.sojourns)
            per_worker.append({
                "worker": state.spec.worker,
                "classes": [state.spec.worker],
                "start_window": 0,
                "released": final["released"],
                "committed": final["committed"],
                "shed": final["shed"],
                "expired": final["expired"],
                "lost": final["lost"],
                "final_backlog": final["backlog"],
                "cross": final.get("cross", 0),
                "end": state.end or "lost",
                "restarts": state.restarts,
                "replayed": state.replayed,
            })
        if totals["cross"]:
            self.rec.count("cluster.cross_shard", totals["cross"])
        return ClusterReport(
            topology=self.topology,
            engine="batch",
            stream=self.stream.kind,
            workers=self.config.workers,
            windows=self.config.windows,
            window_len=self.service.window,
            seed=self.stream.seed,
            released=totals["released"],
            committed=totals["committed"],
            shed=totals["shed"],
            expired=totals["expired"],
            lost=totals["lost"],
            final_backlog=totals["backlog"],
            **sojourn_summary(sojourns),
            per_worker=tuple(per_worker),
            chaos=self.chaos.as_dicts(),
            restarts=self.total_restarts,
            stragglers=self.stragglers,
            wall_s=round(wall_s, 6),
            cross_shard=totals["cross"],
        )


def run_cluster(
    topology: str = "grid",
    size: int = 3,
    size2: Optional[int] = None,
    stream: StreamSpec | None = None,
    service: ServiceConfig | None = None,
    config: ClusterConfig | None = None,
    chaos: ChaosPlan | None = None,
    recorder: Optional[Recorder] = None,
) -> ClusterReport:
    """Run a supervised multi-process scheduling cluster to completion.

    Forks ``config.workers`` processes, each serving one residue class
    of the arrival stream described by ``stream`` on the named topology,
    supervises them (heartbeats, bounded restarts, journaled recovery,
    optional ``chaos`` injection), and merges their accounting into one
    :class:`~repro.cluster.ClusterReport`.  The cluster-wide identity
    ``committed + shed + expired + lost + final_backlog == released``
    holds on the returned report however many workers crashed or
    stalled along the way.

    ``config.journal_dir`` must not hold another run's worker journals
    or checkpoints: recovery would replay their history as this run's,
    so such a directory raises :class:`~repro.errors.ClusterError`
    before any worker is forked.
    """
    stream = stream if stream is not None else StreamSpec()
    service = service if service is not None else ServiceConfig()
    config = config if config is not None else ClusterConfig()
    chaos = chaos if chaos is not None else ChaosPlan()
    sup = _Supervisor(
        topology, size, size2, stream, service, config, chaos, recorder
    )
    owns_dir = config.journal_dir is None
    journal_dir = Path(
        tempfile.mkdtemp(prefix="repro-cluster-")
        if owns_dir else config.journal_dir
    )
    stale = sorted(journal_dir.glob("worker-*"))
    if stale:
        raise ClusterError(
            f"journal directory {journal_dir} already holds "
            f"{stale[0].name} from another run; give each run a fresh "
            f"directory"
        )
    journal_dir.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    try:
        sup.run(journal_dir)
    finally:
        if owns_dir:
            shutil.rmtree(journal_dir, ignore_errors=True)
    report = sup.merge(time.monotonic() - start)
    if not report.accounted:
        raise ClusterError(
            f"cluster accounting identity violated: committed "
            f"{report.committed} + shed {report.shed} + expired "
            f"{report.expired} + lost {report.lost} + backlog "
            f"{report.final_backlog} != released {report.released}"
        )
    return report
