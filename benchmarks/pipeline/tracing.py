"""Per-layer attribution for the pipeline benchmark's ``--trace`` run.

Spans are recorded from the benchmark's own files: :class:`Tracer`
wraps the layers' public callables (methods on their classes, functions
in the module namespaces that call them) and restores the originals on
:meth:`Tracer.uninstall`.  Nothing inside the program changes.  A
layer's self time is its span's duration minus the time its child spans
cover; shares are fractions of ``run_window`` time in the service
workloads and of worker time in the cluster.

Cluster workers are forked, so the wrappers are installed before the
fork.  A wrapped ``repro.cluster.supervisor.worker_main`` resets the
inherited totals, runs the worker, and writes the incarnation's totals
to a file when it finishes; an incarnation killed by chaos never
finishes, so its partial spans drop out of numerator and denominator
alike.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

import numpy as np

import repro.cluster.supervisor as supervisor_mod
import repro.cluster.worker as worker_mod
import repro.service.loop as loop_mod
from repro.cluster import ShardedStream, WindowJournal
from repro.cluster.wire import MSG_DONE
from repro.core.grid import GridScheduler
from repro.core.incremental import (
    DistanceMemo,
    IncrementalConflictGraph,
    SchedulerSession,
)
from repro.service import SchedulingService, ServiceReport

#: spans whose individual durations are kept for a p99
_P99_SPANS = ("session.submit", "session.commit", "scheduler.schedule",
              "online.run_resilient", "journal.checkpoint")


class Tracer:
    """Span totals, self times and counters for the traced passes.

    ``dump_dir`` receives the totals of finished cluster worker
    incarnations; :meth:`uninstall` folds them in.
    """

    def __init__(self, dump_dir: Path) -> None:
        self.dump_dir = dump_dir
        self._installed: List[tuple] = []
        self._worker_dumps: List[Dict[str, Any]] = []
        self.reset()

    def reset(self) -> None:
        #: name -> [total_s, self_s, calls, durations or None]
        self.spans: Dict[str, list] = {}
        self.counters: Dict[str, float] = {}
        self._stack: List[float] = []
        self._sessions: Dict[int, SchedulerSession] = {}

    # ------------------------------------------------------------------ #
    # wrapping
    # ------------------------------------------------------------------ #

    def _slot(self, name: str) -> list:
        slot = self.spans.get(name)
        if slot is None:
            slot = self.spans[name] = [
                0.0, 0.0, 0, [] if name in _P99_SPANS else None]
        return slot

    def _wrap(self, name: str, fn: Callable,
              after: Optional[Callable] = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                slot = tracer._slot(name)
                slot[0] += dur
                slot[1] += dur - child
                slot[2] += 1
                if slot[3] is not None:
                    slot[3].append(dur)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner: Any, attr: str, name: str,
               after: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, after))

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def maximum(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0.0), value)

    def install(self) -> None:
        """Wrap every layer's public callables."""
        if self._installed:
            raise RuntimeError("tracer already installed")

        def session_seen(args, _result):
            self._sessions[id(args[0])] = args[0]

        def resilient_report(_args, result):
            report = result.report
            self.count("online.retries", report.retries)
            self.count("online.reroutes", report.reroutes)
            self.count("online.sanitizer_checks", report.sanitizer_checks)

        def checkpoint_size(args, _result):
            journal = args[0]
            self.maximum("journal.checkpoint_bytes_max",
                         os.stat(journal.checkpoint_path).st_size)

        def wire_bytes(_args, result):
            self.count("wire.bytes", len(result.encode("utf-8")))

        def done_report(_args, result):
            kind, body = result
            if kind == MSG_DONE:
                report = ServiceReport.from_json(body["report"])
                self.count("service.deferred", report.deferred_admissions)
                self.maximum("service.backlog_peak", report.peak_backlog)

        self._patch(SchedulingService, "run_window", "service.run_window")
        self._patch(SchedulingService, "snapshot_state",
                    "service.snapshot_state")
        self._patch(SchedulerSession, "submit", "session.submit",
                    session_seen)
        self._patch(SchedulerSession, "commit", "session.commit")
        self._patch(IncrementalConflictGraph, "add", "incremental.add")
        self._patch(IncrementalConflictGraph, "remove", "incremental.remove")
        self._patch(DistanceMemo, "pair_distances", "memo.pair_distances")
        self._patch(GridScheduler, "schedule", "scheduler.schedule")
        self._patch(loop_mod, "run_resilient", "online.run_resilient",
                    resilient_report)
        self._patch(WindowJournal, "append", "journal.append")
        self._patch(WindowJournal, "checkpoint", "journal.checkpoint",
                    checkpoint_size)
        self._patch(WindowJournal, "load", "journal.load")
        self._patch(ShardedStream, "window", "stream.window")
        self._patch(worker_mod, "encode_message", "wire.encode", wire_bytes)
        self._patch(supervisor_mod, "decode_message", "wire.decode",
                    done_report)

        self.dump_dir.mkdir(parents=True, exist_ok=True)
        original = supervisor_mod.worker_main
        traced_main = self._wrap("worker.main", original)
        dump_dir, tracer = self.dump_dir, self

        def worker_main(conn, spec):
            tracer.reset()
            traced_main(conn, spec)
            path = dump_dir / f"worker-{spec.worker}-{os.getpid()}.json"
            path.write_text(json.dumps(tracer.dump()), encoding="utf-8")

        self._installed.append((supervisor_mod, "worker_main", original))
        supervisor_mod.worker_main = worker_main

    def uninstall(self) -> None:
        """Restore the originals and collect finished workers' totals."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []
        if self.dump_dir.is_dir():
            self._worker_dumps.extend(
                json.loads(p.read_text(encoding="utf-8"))
                for p in sorted(self.dump_dir.glob("*.json")))
            shutil.rmtree(self.dump_dir)

    # ------------------------------------------------------------------ #
    # totals
    # ------------------------------------------------------------------ #

    def dump(self) -> Dict[str, Any]:
        """Plain-data totals of this process (with its sessions' stats)."""
        sessions: Dict[str, float] = {}
        for session in self._sessions.values():
            for key, value in session.stats.items():
                sessions[key] = sessions.get(key, 0.0) + value
        return {"spans": self.spans, "counters": self.counters,
                "sessions": sessions}

    def totals(self) -> Dict[str, Any]:
        """This process's totals merged with every worker incarnation's."""
        return merge(self._worker_dumps + [self.dump()])


def merge(dumps: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum several :meth:`Tracer.dump` results (maxima stay maxima)."""
    spans: Dict[str, list] = {}
    counters: Dict[str, float] = {}
    sessions: Dict[str, float] = {}
    for d in dumps:
        for name, (total, self_s, calls, durs) in d["spans"].items():
            slot = spans.setdefault(name, [0.0, 0.0, 0, None])
            slot[0] += total
            slot[1] += self_s
            slot[2] += calls
            if durs is not None:
                slot[3] = (slot[3] or []) + list(durs)
        for name, value in d["counters"].items():
            if name.endswith("_max") or name.endswith("_peak"):
                counters[name] = max(counters.get(name, 0.0), value)
            else:
                counters[name] = counters.get(name, 0.0) + value
        for name, value in d["sessions"].items():
            sessions[name] = sessions.get(name, 0.0) + value
    return {"spans": spans, "counters": counters, "sessions": sessions}


def _p99_ms(durations: Optional[List[float]]) -> float:
    if not durations:
        return 0.0
    return float(np.percentile(durations, 99)) * 1e3


def layer_metrics(totals: Dict[str, Any], passes: int,
                  extra: Dict[str, float],
                  names: List[str]) -> Dict[str, float]:
    """The per-layer metrics ``names`` from merged totals of ``passes``.

    Shares divide by the worker's main span in the cluster, by the
    service's ``run_window`` in-process.  Counts are per pass; ``extra``
    supplies the values read from the passes' reports (and the trace
    overhead), and every layer that did not run reads 0.
    """
    spans, counters, sess = (
        totals["spans"], totals["counters"], totals["sessions"])
    in_worker = "worker.main" in spans
    base = spans["worker.main" if in_worker else "service.run_window"][0]

    def total(name):
        return spans.get(name, [0.0])[0]

    def share(name):
        return total(name) / base if base > 0 else 0.0

    def mean_us(name):
        slot = spans.get(name)
        return slot[0] / slot[2] * 1e6 if slot and slot[2] else 0.0

    def p99_ms(name):
        return _p99_ms(spans.get(name, [0, 0, 0, None])[3])

    per_pass = 1.0 / max(passes, 1)
    memo_calls = sess.get("memo_hits", 0.0) + sess.get("memo_misses", 0.0)
    out = dict.fromkeys(names, 0.0)
    out.update({
        "service.self_share":
            spans.get("service.run_window", [0.0, 0.0])[1] / base,
        "session.submit_share": share("session.submit"),
        "session.commit_share": share("session.commit"),
        "session.submit_p99_ms": p99_ms("session.submit"),
        "session.commit_p99_ms": p99_ms("session.commit"),
        "incremental.add_us": mean_us("incremental.add"),
        "incremental.remove_us": mean_us("incremental.remove"),
        "incremental.repairs_examined":
            sess.get("repairs_examined", 0.0) * per_pass,
        "incremental.repairs_changed":
            sess.get("repairs_changed", 0.0) * per_pass,
        "incremental.full_rebuilds": sess.get("full_rebuilds", 0.0) * per_pass,
        "memo.hit_ratio": (sess.get("memo_hits", 0.0) / memo_calls
                           if memo_calls else 0.0),
        "memo.pair_distances_share": share("memo.pair_distances"),
        "scheduler.schedule_share": share("scheduler.schedule"),
        "scheduler.schedule_p99_ms": p99_ms("scheduler.schedule"),
        # in the session's batch mode, commit = instance build + schedule
        "scheduler.instance_build_share": (
            share("session.commit") - share("scheduler.schedule")
            if "scheduler.schedule" in spans else 0.0),
        "online.run_resilient_share": share("online.run_resilient"),
        "online.run_resilient_p99_ms": p99_ms("online.run_resilient"),
        "journal.checkpoint_share": share("journal.checkpoint"),
        "journal.checkpoint_p99_ms": p99_ms("journal.checkpoint"),
        "journal.append_share": share("journal.append"),
        "journal.load_ms": total("journal.load") * 1e3 * per_pass,
        "stream.window_share": share("stream.window"),
        "wire.encode_share": share("wire.encode"),
        "wire.decode_ms": total("wire.decode") * 1e3 * per_pass,
    })
    if in_worker:
        # in-process, the only snapshot is the benchmark's own digest read
        out["worker.snapshot_share"] = share("service.snapshot_state")
        out["worker.service_share"] = share("service.run_window")
    for name in ("online.retries", "online.reroutes",
                 "online.sanitizer_checks", "wire.bytes", "service.deferred"):
        out[name] = counters.get(name, 0.0) * per_pass
    for name in ("journal.checkpoint_bytes_max", "service.backlog_peak"):
        out[name] = counters.get(name, 0.0)
    out.update(extra)
    unknown = sorted(set(out) - set(names))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    return out
