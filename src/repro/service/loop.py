"""The long-lived windowed scheduling service.

:class:`SchedulingService` turns the repo's batch machinery into a
continuously running system: an unbounded
:class:`~repro.workloads.streams.ArrivalStream` feeds fixed-length
arrival windows; each window's admitted transactions are batched with
the priority-ordered backlog (window-based greedy contention management
per Sharma/Estrade/Busch, arXiv:1002.4182) and executed by one of two
engines, chosen by whether a fault plan is attached:

* **batch** (no plan) -- each window's batch is one independent
  instance of the offline problem: the topology's scheduler, resolved
  once when the service is built, schedules it and the whole batch
  commits;
* **reactive** (a plan, even the empty ``FaultPlan()``) -- the window
  runs through the fault-aware :func:`~repro.online.run_resilient`
  runtime on the service's own clock, consuming live every plan event
  that starts before the batch's last commit (hop retries, reroutes,
  lease recovery).

Robustness around the engines:

* **backpressure** -- high-water admission with hysteresis down to
  the derived drain mark: ``defer`` (FIFO overflow queue), ``shed``
  (typed refusal), or ``strict`` (:class:`~repro.errors.OverloadError`);
* **deadlines** -- transactions whose sojourn exceeds the configured
  deadline expire with a typed reason;
* **bounded window retry** -- a window whose execution hits an
  unabsorbable fault returns its batch to the backlog and backs off a
  bounded, deterministic number of windows
  (:class:`~repro.faults.backoff.RetryPolicy`); transactions exceeding
  the budget are dropped with a typed reason, never silently;
* **saturation detection** -- a queue-growth regression
  (:class:`~repro.service.saturation.SaturationDetector`) flips the
  service into shed mode before queues diverge.

Everything is deterministic given the stream's seed and the plan, and
recording through a :class:`~repro.obs.Recorder` never changes a
decision -- the same bit-parity standard as every other engine.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.dispatch import resolve_scheduler
from ..core.instance import Instance
from ..core.scheduler import Scheduler
from ..errors import FaultError, OverloadError, SchedulingError, ServiceError
from ..faults.plan import FaultPlan, NodeCrash
from ..obs import events as obs_events
from ..obs.recorder import Recorder, active
from ..online.arrivals import OnlineWorkload, TimedTransaction
from ..online.resilient import run_resilient
from ..workloads.streams import ArrivalStream
from .config import ServiceConfig
from .report import ServiceReport, sojourn_summary
from .saturation import SaturationDetector

__all__ = ["SchedulingService", "run_service"]


class _Entry:
    """One queued transaction: payload, release, and retry bookkeeping."""

    __slots__ = ("txn", "release", "attempts", "eligible_window")

    def __init__(self, txn, release: int) -> None:
        self.txn = txn
        self.release = release
        self.attempts = 0  # failed-window count (bounded by RetryPolicy)
        self.eligible_window = 0  # earliest window this entry may batch in

    @property
    def priority(self) -> Tuple[int, int]:
        """Timestamp priority: older releases win, tid breaks ties."""
        return (self.release, self.txn.tid)


class SchedulingService:
    """A continuously running windowed scheduler over an arrival stream.

    Parameters
    ----------
    stream:
        The arrival process; its network and object homes define the
        service's world.  Finite streams (``limit`` set) let
        :meth:`run` drain to empty; unbounded streams require an
        explicit window count.
    config:
        Robustness policies (defaults: 16-step windows, defer
        backpressure at high-water 64, no deadlines).
    plan:
        Optional live :class:`~repro.faults.plan.FaultPlan` on the
        service's global clock.  Attaching one (``FaultPlan()`` for a
        fault-free run) selects the reactive engine; without one the
        batch engine runs ``config.algo`` once per window.
    rng:
        Randomness for randomized batch schedulers (cluster/star);
        defaults to a fixed-seed generator so the service is
        deterministic out of the box.
    recorder:
        Optional observability sink; strictly passive.
    """

    def __init__(
        self,
        stream: ArrivalStream,
        config: ServiceConfig | None = None,
        plan: FaultPlan | None = None,
        rng: np.random.Generator | None = None,
        recorder: Recorder | None = None,
    ) -> None:
        self.stream = stream
        self.config = config or ServiceConfig()
        self.plan = plan
        self.engine = "reactive" if plan is not None else "batch"
        if plan is not None:
            plan.validate_against(stream.network)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._rec = active(recorder)
        self._scheduler: Scheduler | None = None
        if self.engine == "batch":
            self._scheduler = resolve_scheduler(
                self.config.algo, topology=stream.network.topology.name
            )
        self.detector = SaturationDetector(
            horizon=self.config.detector_horizon,
            slope_threshold=self.config.slope_threshold,
            min_backlog=self.config.drain_mark,
        )
        # queues and gate
        self._backlog: List[_Entry] = []
        self._deferred: List[_Entry] = []
        self._gate_open = True
        # fault bookkeeping that outlives windows
        self._dead: set[int] = set()
        self._unrecoverable: set[int] = set()
        # crashes are consumed (dead sets, backlog losses) as the clock
        # reaches them, but recorded as soon as a batch meets them, so
        # the record cursor runs at or ahead of the consume cursor
        self._crash_cursor = 0
        self._crash_recorded = 0
        self._crash_seq: Tuple[NodeCrash, ...] = (
            plan.crash_events if plan is not None else ()
        )
        # windowed plan events as (start, plan index, event), consumed in
        # start order as batches execute; live ones have started but not
        # yet ended
        self._plan_queue: List[Tuple[int, int, object]] = sorted(
            (e.start, i, e)
            for i, e in enumerate(plan.events if plan is not None else ())
            if not isinstance(e, NodeCrash)
        )
        self._plan_cursor = 0
        self._plan_live: List[Tuple[int, object]] = []
        # accounting
        self._windows_run = 0
        self._released = 0
        self._admitted = 0
        self._commits: Dict[int, int] = {}  # tid -> global commit time
        self._sojourns: Counter[int] = Counter()  # sojourn -> commits
        # outcome counts; each reason reaches the recorder as an event
        self._shed = 0
        self._expired = 0
        self._lost = 0
        self._deferred_admissions = 0
        self._window_retries = 0
        # queue length after each window: its sum and peak (the detector
        # counts the windows)
        self._backlog_sum = 0
        self._backlog_peak = 0
        self._shed_windows = 0
        self._busy_until = 0
        self._busy = 0

    # ------------------------------------------------------------------ #
    # queue state
    # ------------------------------------------------------------------ #

    @property
    def queue_length(self) -> int:
        """Backlog plus the deferred overflow queue -- the measured queue."""
        return len(self._backlog) + len(self._deferred)

    @property
    def windows_run(self) -> int:
        """Arrival windows processed so far (the next window's index)."""
        return self._windows_run

    def _update_gate(self) -> None:
        """Watermark hysteresis on the pending backlog."""
        if self._gate_open:
            if len(self._backlog) >= self.config.high_water:
                self._gate_open = False
        elif len(self._backlog) < self.config.drain_mark:
            self._gate_open = True

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #

    def _doomed(self, txn) -> Optional[str]:
        """Why a crash keeps ``txn`` from ever committing, else ``None``."""
        if txn.node in self._dead:
            return f"node {txn.node} crashed"
        gone = txn.objects & self._unrecoverable
        return f"objects {sorted(gone)} unrecoverable" if gone else None

    def _lose(self, tid: int, reason: str, now: int) -> None:
        self._lost += 1
        if self._rec.enabled:
            self._rec.record(obs_events.LostEvent(now, tid, reason))
            self._rec.count("service.lost")

    def _admit_all(
        self, entries: List[_Entry], now: int, window_index: int
    ) -> None:
        """Route one window's releases, in order, through the gate.

        A release whose node crashed or one of whose objects is
        unrecoverable is lost.  While a window admits, the backlog only
        grows, so once the gate closes it stays closed for the rest of
        the window: after one gate update the first ``high_water -
        len(backlog)`` survivors are admitted (none when the gate is
        closed), and the rest all meet one policy -- deferred, shed with
        one shared reason, or (strict) an
        :class:`~repro.errors.OverloadError` naming the first of them,
        raised once the releases before it are settled.
        """
        lost: Dict[int, str] = {}  # position in entries -> reason
        if self._dead or self._unrecoverable:
            for i, e in enumerate(entries):
                reason = self._doomed(e.txn)
                if reason is not None:
                    lost[i] = reason
        survivors = (
            [e for i, e in enumerate(entries) if i not in lost]
            if lost else entries
        )
        admit = 0
        if survivors:
            self._update_gate()
            if self._gate_open:
                admit = min(
                    len(survivors),
                    self.config.high_water - len(self._backlog),
                )
        denied = survivors[admit:]
        policy = "shed" if self.detector.saturated else self.config.admission
        if denied:
            self._gate_open = False
            if policy == "strict":
                # only the releases before the refused one are settled
                cut = entries.index(denied[0])
                entries = entries[:cut]
                lost = {i: r for i, r in lost.items() if i < cut}
        self._lost += len(lost)
        base = len(self._backlog)
        admitted = survivors[:admit]
        for e in admitted:
            if e.eligible_window < window_index:
                e.eligible_window = window_index
        self._backlog.extend(admitted)
        self._admitted += admit
        if denied and policy == "shed":
            self._shed += len(denied)
        elif denied and policy == "defer":
            self._deferred.extend(denied)
            self._deferred_admissions += len(denied)
        if self._rec.enabled:
            self._record_admissions(entries, lost, base, admit, policy, now)
        if denied and policy == "strict":
            raise OverloadError(
                f"window {window_index}: release of transaction "
                f"{denied[0].txn.tid} with backlog {len(self._backlog)} >= "
                f"high-water {self.config.high_water}"
            )

    def _record_admissions(
        self,
        entries: List[_Entry],
        lost: Dict[int, str],
        base: int,
        admit: int,
        policy: str,
        now: int,
    ) -> None:
        """Emit :meth:`_admit_all`'s outcomes as events, in release order."""
        rec = self._rec
        admitted = 0
        for i, e in enumerate(entries):
            tid = e.txn.tid
            if i in lost:
                rec.record(obs_events.LostEvent(now, tid, lost[i]))
                rec.count("service.lost")
            elif admitted < admit:
                admitted += 1
                rec.record(obs_events.AdmissionEvent(
                    now, tid, "admit", base + admitted))
                rec.count("service.admitted")
            else:
                rec.record(obs_events.AdmissionEvent(
                    now, tid, policy, base + admit))
                rec.count(
                    "service.shed" if policy == "shed" else "service.deferred")

    def _expire(self, now: int) -> None:
        """Drop queued transactions past their deadline."""
        deadline = self.config.deadline
        if deadline is None:
            return
        for queue in (self._backlog, self._deferred):
            keep: List[_Entry] = []
            for e in queue:
                if now - e.release > deadline:
                    self._expired += 1
                    if self._rec.enabled:
                        self._rec.record(obs_events.LostEvent(
                            now, e.txn.tid,
                            f"deadline expired: sojourn {now - e.release} "
                            f"> {deadline} steps",
                        ))
                        self._rec.count("service.expired")
                else:
                    keep.append(e)
            queue[:] = keep

    # ------------------------------------------------------------------ #
    # fault-plan slicing
    # ------------------------------------------------------------------ #

    def _record_crashes(self, count: int) -> None:
        """Record each of the plan's first ``count`` crashes not yet
        recorded, at its own time."""
        if self._rec.enabled:
            for ev in self._crash_seq[self._crash_recorded:count]:
                self._rec.record(obs_events.CrashEvent(ev.time, ev.node))
        self._crash_recorded = max(self._crash_recorded, count)

    def _mark_crashes(self, span_end: int) -> None:
        """Consume global crashes before ``span_end``; record each not yet
        recorded, update dead sets and lose the backlog entries each
        crash dooms at the crash's own time, since they were pending when
        the node died (deferred entries meet the check at admission).

        The service's clock drives consumption: a window consumes the
        crashes at or before its ``exec_start`` and a failed window those
        before the end of the window it burns, so no crash dooms a
        release the service admits before the crash happens.  A batch
        meets later crashes through its plan slice without consuming
        them.
        """
        while (
            self._crash_cursor < len(self._crash_seq)
            and self._crash_seq[self._crash_cursor].time < span_end
        ):
            ev = self._crash_seq[self._crash_cursor]  # one per node
            self._crash_cursor += 1
            self._record_crashes(self._crash_cursor)
            self._dead.add(ev.node)
            self._unrecoverable.update(
                obj for obj, home in self.stream.object_homes.items()
                if home == ev.node
            )
            keep: List[_Entry] = []
            for e in self._backlog:
                reason = self._doomed(e.txn)
                if reason is None:
                    keep.append(e)
                else:
                    self._lose(e.txn.tid, reason, ev.time)
            self._backlog = keep

    def _window_plan(
        self, release: int, until: int, crashes: Tuple[NodeCrash, ...]
    ) -> FaultPlan:
        """The plan events a batch released at ``release`` runs against.

        These are the plan's own windowed events (failures, stalls,
        spikes) that start before ``until`` and are still live at
        ``release``, in plan order, then ``crashes``: the global crashes
        not yet consumed, later ones included.

        Successive batches start no earlier than the previous one ended,
        and a batch only raises its ``until``, so neither bound ever
        decreases: an event that ended before one batch is done with for
        good, and the slice costs the live events, not the whole plan.
        """
        queue = self._plan_queue
        while (
            self._plan_cursor < len(queue)
            and queue[self._plan_cursor][0] < until
        ):
            _, index, event = queue[self._plan_cursor]
            self._plan_live.append((index, event))
            self._plan_cursor += 1
        self._plan_live = [
            (i, e) for i, e in self._plan_live
            if e.end is None or e.end > release
        ]
        live = [e for _, e in sorted(self._plan_live)]  # plan order
        return FaultPlan(live + list(crashes))

    # ------------------------------------------------------------------ #
    # window execution
    # ------------------------------------------------------------------ #

    def _build_batch(self, window_index: int) -> List[_Entry]:
        """Highest-priority eligible entries on distinct nodes."""
        taken_nodes: set[int] = set()
        batch: List[_Entry] = []
        remaining: List[_Entry] = []
        for e in sorted(self._backlog, key=lambda e: e.priority):
            if (
                e.eligible_window <= window_index
                and e.txn.node not in taken_nodes
            ):
                taken_nodes.add(e.txn.node)
                batch.append(e)
            else:
                remaining.append(e)
        self._backlog = remaining
        return batch

    def _requeue_failed(
        self, batch: List[_Entry], window_index: int, now: int
    ) -> None:
        """Return a failed window's batch with bounded backoff."""
        policy = self.config.retry
        for e in batch:
            e.attempts += 1
            reason = self._doomed(e.txn)
            if reason is None and e.attempts > policy.max_retries:
                reason = (
                    f"window retry budget exhausted "
                    f"({policy.max_retries} failed windows)"
                )
            if reason is not None:
                self._lose(e.txn.tid, reason, now)
                continue
            e.eligible_window = window_index + 1 + policy.wait(e.attempts)
            self._window_retries += 1
            self._backlog.append(e)
            if self._rec.enabled:
                self._rec.count("service.window_retries")
                self._rec.observe(
                    "service.retry_backoff", policy.wait(e.attempts))

    def _commit_all(
        self, by_tid: Dict[int, _Entry], commits: Dict[int, int],
        offset: int,
    ) -> None:
        """Record a window's commits, in tid order, at ``commits`` plus
        ``offset`` on the service's clock."""
        tids = sorted(commits)
        times = [offset + commits[tid] for tid in tids]
        sojourns = [
            time - by_tid[tid].release for tid, time in zip(tids, times)
        ]
        self._commits.update(zip(tids, times))
        self._sojourns.update(sojourns)
        if self._rec.enabled:
            for tid, time, sojourn in zip(tids, times, sojourns):
                txn = by_tid[tid].txn
                self._rec.record(obs_events.CommitEvent(
                    time, tid, txn.node, tuple(sorted(txn.objects))))
                self._rec.count("service.commits")
                self._rec.observe("service.sojourn", sojourn)

    def _homes_for(self, batch: List[_Entry]) -> Dict[int, int]:
        needed: set[int] = set()
        for e in batch:
            needed.update(e.txn.objects)
        homes = self.stream.object_homes
        # an unhomed object is left out, so the Instance built from the
        # batch rejects it by name (InstanceError) on either engine
        return {o: homes[o] for o in sorted(needed) if o in homes}

    def _execute_batch(
        self, batch: List[_Entry], exec_start: int, window_index: int
    ) -> None:
        """Run one window's batch; commits, losses, and busy accounting."""
        by_tid = {e.txn.tid: e for e in batch}
        if self.engine == "batch":
            assert self._scheduler is not None
            instance = Instance(
                self.stream.network,
                [by_tid[tid].txn for tid in sorted(by_tid)],
                self._homes_for(batch),
            )
            sched = self._scheduler.schedule(instance, self._rng)
            self._commit_all(by_tid, sched.commit_times, exec_start)
            self._busy_until = exec_start + sched.makespan
            self._busy += sched.makespan
            return
        # reactive: run_resilient on the service's clock, the batch
        # released at the first step a commit can land; the service
        # records its outcomes, so the run gets no recorder
        crashes = self._crash_seq[self._crash_cursor:]
        release = exec_start + 1
        workload = OnlineWorkload(
            self.stream.network,
            [TimedTransaction(release=release, txn=e.txn) for e in batch],
            self._homes_for(batch),
        )
        until = exec_start + self.config.window
        while True:
            try:
                res = run_resilient(
                    workload, self._window_plan(release, until, crashes),
                    policy=self.config.retry,
                )
            except FaultError:
                # unabsorbable fault: burn the window, consume the crashes
                # it burns through, back off, retry bounded
                burnt = exec_start + self.config.window
                self._mark_crashes(burnt)
                self._requeue_failed(batch, window_index, burnt)
                self._busy_until = burnt
                self._busy += self.config.window
                return
            last = max(res.commits.values(), default=exec_start)
            # the batch meets every event that starts before its last
            # commit: one that starts in the run's overrun joins the
            # slice, and the batch reruns
            queue, cursor = self._plan_queue, self._plan_cursor
            if cursor == len(queue) or queue[cursor][0] >= last:
                break
            until = last
        # the batch met every crash up to its last outcome: they are
        # recorded now, though the clock consumes them later
        outcome = max([last, *res.lost_at.values()])
        self._record_crashes(
            bisect_right(self._crash_seq, outcome, key=lambda ev: ev.time)
        )
        self._commit_all(by_tid, res.commits, 0)
        for tid, reason in res.report.lost:
            self._lose(tid, reason, res.lost_at[tid])
        self._busy_until = last
        self._busy += last - exec_start

    # ------------------------------------------------------------------ #
    # the loop
    # ------------------------------------------------------------------ #

    def run_window(self, window_index: int) -> None:
        """Process one arrival window end to end (advances all state)."""
        w = self.config.window
        arrival_start, arrival_end = window_index * w, (window_index + 1) * w
        exec_start = max(arrival_end, self._busy_until)
        arrivals = self.stream.window(arrival_start, arrival_end)
        self._released += len(arrivals)
        # consume the crashes at or before the step this window admits
        # at, even when no batch runs (the node is dead either way)
        self._mark_crashes(exec_start + 1)
        # deferred releases re-apply first (FIFO), then new arrivals
        entries = self._deferred + [
            _Entry(timed.txn, timed.release) for timed in arrivals
        ]
        self._deferred = []
        self._admit_all(entries, exec_start, window_index)
        self._expire(exec_start)
        batch = self._build_batch(window_index)
        if batch:
            self._execute_batch(batch, exec_start, window_index)
        queue = self.queue_length
        self._backlog_sum += queue
        self._backlog_peak = max(self._backlog_peak, queue)
        self.detector.observe(queue)
        if self.detector.saturated:
            self._shed_windows += 1
        self._windows_run += 1
        if self._rec.enabled:
            self._rec.count("service.windows")
            self._rec.gauge("service.backlog", queue)

    def run(
        self,
        windows: Optional[int] = None,
        max_windows: int = 100_000,
    ) -> ServiceReport:
        """Run ``windows`` arrival windows (or drain a finite stream).

        With ``windows=None`` the stream must be finite (``limit`` set);
        the service then runs until the stream is exhausted and every
        queue is empty, guarded by ``max_windows`` against a configured
        livelock (e.g. a retry loop that can never drain).
        """
        if windows is None and self.stream.limit is None:
            raise ServiceError(
                "an unbounded stream needs an explicit window count; "
                "pass windows=N or give the stream a limit"
            )
        if windows is not None and windows < 1:
            raise ServiceError(f"windows must be >= 1, got {windows}")
        start = self._windows_run
        while True:
            idx = self._windows_run
            if windows is not None:
                if idx - start >= windows:
                    break
            elif self.stream.exhausted and self.queue_length == 0:
                break
            if idx - start >= max_windows:
                raise SchedulingError(
                    f"service exceeded {max_windows} windows without "
                    f"draining ({self.queue_length} queued)"
                )
            self.run_window(idx)
        return self.report()

    # ------------------------------------------------------------------ #
    # checkpointing (cluster worker recovery)
    # ------------------------------------------------------------------ #

    def accounting(self) -> Dict[str, int]:
        """The conservation counters at the current window boundary.

        ``committed + shed + expired + lost + backlog == released`` holds
        at every boundary; the cluster journal stores this dict (plus its
        digest) per window, and the supervisor sums it across workers.
        """
        return {
            "released": self._released,
            "committed": len(self._commits),
            "shed": self._shed,
            "expired": self._expired,
            "lost": self._lost,
            "backlog": self.queue_length,
        }

    def sojourn_histogram(self) -> List[List[int]]:
        """Commit sojourns so far as ascending ``[sojourn, count]`` pairs."""
        return [[v, c] for v, c in sorted(self._sojourns.items())]

    @staticmethod
    def _entry_state(e: _Entry) -> Dict[str, object]:
        return {
            "tid": e.txn.tid,
            "node": e.txn.node,
            "objects": sorted(e.txn.objects),
            "release": e.release,
            "attempts": e.attempts,
            "eligible_window": e.eligible_window,
        }

    @staticmethod
    def _entry_from_state(state: Dict[str, object]) -> _Entry:
        from ..core.transaction import Transaction

        entry = _Entry(
            Transaction(state["tid"], state["node"], state["objects"]),
            int(state["release"]),  # type: ignore[arg-type]
        )
        entry.attempts = int(state["attempts"])  # type: ignore[arg-type]
        entry.eligible_window = int(state["eligible_window"])  # type: ignore[arg-type]
        return entry

    def snapshot_state(self) -> Dict[str, object]:
        """JSON-safe snapshot of the service's full mutable state.

        Together with :meth:`restore_state` this is the cluster worker's
        checkpoint: a service constructed with the same stream spec,
        config, and plan, then fed this snapshot, continues bit-for-bit
        identically (same commits, same report).  Valid only at a window
        boundary (never mid-``run_window``).
        """
        return {
            "stream": self.stream.state_dict(),
            "rng": self._rng.bit_generator.state,
            "backlog": [self._entry_state(e) for e in self._backlog],
            "deferred": [self._entry_state(e) for e in self._deferred],
            "gate_open": self._gate_open,
            "dead": sorted(self._dead),
            "unrecoverable": sorted(self._unrecoverable),
            "crash_cursor": self._crash_cursor,
            "crash_recorded": self._crash_recorded,
            "windows_run": self._windows_run,
            "released": self._released,
            "admitted": self._admitted,
            "commits": {str(t): c for t, c in self._commits.items()},
            "sojourns": self.sojourn_histogram(),
            "shed": self._shed,
            "expired": self._expired,
            "lost": self._lost,
            "deferred_admissions": self._deferred_admissions,
            "window_retries": self._window_retries,
            "backlog_sum": self._backlog_sum,
            "backlog_peak": self._backlog_peak,
            "shed_windows": self._shed_windows,
            "busy_until": self._busy_until,
            "busy": self._busy,
            "detector": self.detector.state_dict(),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Restore a snapshot taken by :meth:`snapshot_state`.

        The service must be freshly constructed from the same stream
        spec, config, and plan as the snapshotting one; raises
        :class:`~repro.errors.ServiceError` if windows have already run.
        """
        if self._windows_run or self._released:
            raise ServiceError(
                "restore_state() needs a fresh service; this one has "
                f"already run {self._windows_run} windows"
            )
        self.stream.load_state(state["stream"])  # type: ignore[arg-type]
        self._rng.bit_generator.state = state["rng"]
        self._backlog = [self._entry_from_state(s) for s in state["backlog"]]  # type: ignore[union-attr]
        self._deferred = [self._entry_from_state(s) for s in state["deferred"]]  # type: ignore[union-attr]
        self._gate_open = bool(state["gate_open"])
        self._dead = {int(n) for n in state["dead"]}  # type: ignore[union-attr]
        self._unrecoverable = {int(o) for o in state["unrecoverable"]}  # type: ignore[union-attr]
        self._crash_cursor = int(state["crash_cursor"])  # type: ignore[arg-type]
        self._crash_recorded = int(state["crash_recorded"])  # type: ignore[arg-type]
        self._windows_run = int(state["windows_run"])  # type: ignore[arg-type]
        self._released = int(state["released"])  # type: ignore[arg-type]
        self._admitted = int(state["admitted"])  # type: ignore[arg-type]
        self._commits = {
            int(t): int(c) for t, c in state["commits"].items()  # type: ignore[union-attr]
        }
        self._sojourns = Counter({int(v): int(c) for v, c in state["sojourns"]})  # type: ignore[union-attr]
        self._shed = int(state["shed"])  # type: ignore[arg-type]
        self._expired = int(state["expired"])  # type: ignore[arg-type]
        self._lost = int(state["lost"])  # type: ignore[arg-type]
        self._deferred_admissions = int(state["deferred_admissions"])  # type: ignore[arg-type]
        self._window_retries = int(state["window_retries"])  # type: ignore[arg-type]
        self._backlog_sum = int(state["backlog_sum"])  # type: ignore[arg-type]
        self._backlog_peak = int(state["backlog_peak"])  # type: ignore[arg-type]
        self._shed_windows = int(state["shed_windows"])  # type: ignore[arg-type]
        self._busy_until = int(state["busy_until"])  # type: ignore[arg-type]
        self._busy = int(state["busy"])  # type: ignore[arg-type]
        self.detector.load_state(state["detector"])  # type: ignore[arg-type]

    def report(self) -> ServiceReport:
        """The run's :class:`ServiceReport` (valid at any window boundary)."""
        elapsed = max(self._busy_until, self._windows_run * self.config.window)
        _, slope, observed = self.detector.snapshot()
        return ServiceReport(
            windows=self._windows_run,
            window_len=self.config.window,
            engine=self.engine,
            released=self._released,
            admitted=self._admitted,
            committed=len(self._commits),
            shed=self._shed,
            expired=self._expired,
            lost=self._lost,
            deferred_admissions=self._deferred_admissions,
            window_retries=self._window_retries,
            fault_count=len(self.plan) if self.plan is not None else 0,
            mean_backlog=self._backlog_sum / observed if observed else 0.0,
            peak_backlog=self._backlog_peak,
            final_backlog=self.queue_length,
            **sojourn_summary(self._sojourns),
            elapsed=elapsed,
            busy=self._busy,
            saturated_at=self.detector.tripped_at,
            shed_windows=self._shed_windows,
            detector_trips=self.detector.trips,
            final_slope=slope,
        )


def run_service(
    stream: ArrivalStream,
    windows: Optional[int] = None,
    config: ServiceConfig | None = None,
    plan: FaultPlan | None = None,
    rng: np.random.Generator | None = None,
    recorder: Recorder | None = None,
) -> ServiceReport:
    """One-call convenience: build a service, run it, return the report."""
    return SchedulingService(
        stream, config=config, plan=plan, rng=rng, recorder=recorder
    ).run(windows)
