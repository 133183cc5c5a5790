"""The pipeline benchmark's workloads, inputs and measured passes.

A *pass* is one fixed unit of work: a fresh ``SchedulingService`` (or a
fresh ``run_cluster`` job) driven over the same seeded inputs for a
fixed number of windows.  A run repeats passes until its time budget is
spent, so every pass of a run does identical work, window for window,
and its outputs must be identical (one digest per pass).

Other tenants of a shared machine slow a process down for seconds at a
time and only ever add time, so each window's time is taken as its
minimum over the passes of a run; a change to the code moves every
pass alike.  Short passes put many samples of every window in a run.

Load model: closed loop.  ``SchedulingService.run_window`` is called
back to back on a simulated clock, so wall time is pure scheduling
overhead and queueing shows up in the simulated sojourn instead.
Service inputs come from the bulk generator below and are replayed to
the service, so the program receives only generated inputs; the
cluster's workers build their own streams from a ``StreamSpec`` by
design, and that draw is measured as the ``stream`` layer.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.cluster.supervisor as supervisor_mod
import repro.cluster.worker as worker_mod
from repro.cluster import (
    ChaosPlan,
    ClusterConfig,
    StreamSpec,
    WorkerKill,
    run_cluster,
)
from repro.cluster.wire import MSG_HELLO, MSG_WINDOW
from repro.core.transaction import Transaction
from repro.faults.plan import DelaySpike, FaultPlan, LinkFailure, ObjectStall
from repro.network.registry import network_from_sizes
from repro.online.arrivals import TimedTransaction
from repro.service import SchedulingService, ServiceConfig

#: objects per transaction, in every workload
OBJECTS_PER_TXN = 2
#: arrivals are generated in bulk, this many windows at a time
CHUNK_WINDOWS = 64
#: windows of the untimed warm-up pass (service workloads)
WARMUP_WINDOWS = 64


@dataclass(frozen=True)
class ServiceWorkload:
    """An in-process ``SchedulingService`` workload."""

    name: str
    topology: str
    size: int
    objects: int
    #: ``(rate,)`` for Poisson arrivals, ``(calm, storm, switch)`` for MMPP
    rates: Tuple[float, ...]
    window: int
    high_water: int
    pass_windows: int
    faults: bool = False

    def config(self) -> ServiceConfig:
        return ServiceConfig(window=self.window, high_water=self.high_water,
                             admission="defer", algo="auto")


@dataclass(frozen=True)
class ClusterWorkload:
    """A supervised multi-process ``run_cluster`` workload with kills."""

    name: str
    topology: str
    size: int
    objects: int
    rate: float
    window: int
    workers: int
    pass_windows: int
    checkpoint_every: int


WORKLOADS = {
    w.name: w
    for w in (
        ServiceWorkload(
            "grid-batch", "grid", 24, objects=2048, rates=(1.0,),
            window=256, high_water=1 << 30, pass_windows=128,
        ),
        ServiceWorkload(
            "hypercube-burst", "hypercube", 7, objects=512,
            rates=(2.0, 12.0, 0.02), window=16, high_water=256,
            pass_windows=512,
        ),
        ServiceWorkload(
            "grid-faults", "grid", 12, objects=512, rates=(0.5,),
            window=64, high_water=64, pass_windows=256, faults=True,
        ),
        # a checkpoint every 4 windows puts the window p90 inside the
        # checkpoint windows' mode instead of on its edge
        ClusterWorkload(
            "cluster-kill", "grid", 24, objects=2048, rate=1.0,
            window=256, workers=2, pass_windows=64, checkpoint_every=4,
        ),
    )
}


def scaled_windows(workload, scale: float) -> int:
    """Windows per pass at ``scale`` (the smoke test runs 1/64)."""
    return max(4, int(round(workload.pass_windows * scale)))


def digest(obj) -> str:
    """sha256 of the canonical JSON form of ``obj``."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------- #
# service inputs
# ---------------------------------------------------------------------- #


def _k_subsets(rng: np.random.Generator, n: int, w: int, k: int) -> np.ndarray:
    """``n`` uniform ``k``-subsets of ``range(w)``, one per row, sorted."""
    picks = np.empty((n, 0), dtype=np.int64)
    for j in range(k):
        x = rng.integers(w - j, size=n)
        # shift past the (ascending) earlier picks: a uniform draw over
        # the w - j values not yet taken
        for c in range(j):
            x = x + (x >= picks[:, c])
        picks = np.sort(np.column_stack([picks, x]), axis=1)
    return picks


def _counts(rng: np.random.Generator, rates: Tuple[float, ...], steps: int,
            storm: bool) -> Tuple[np.ndarray, bool]:
    """Per-step arrival counts (Poisson, or MMPP carrying its state)."""
    if len(rates) == 1:
        return rng.poisson(rates[0], size=steps), storm
    calm, high, switch = rates
    flips = rng.random(steps) < switch
    # the state in force at step t is the start state xor the flips
    # drawn at steps before t (a flip at t applies from t + 1 on)
    before = np.concatenate(([0], np.cumsum(flips)[:-1])) % 2
    states = before.astype(bool) ^ storm
    end = bool((int(flips.sum()) % 2) ^ storm)
    return rng.poisson(np.where(states, high, calm)), end


def service_inputs(workload: ServiceWorkload, seed: int, windows: int,
                   net_n: int):
    """Seeded inputs for one pass: object homes and per-window arrivals.

    The model is the one ``PoissonStream``/``MMPPStream`` implement
    (Poisson counts per step, uniform host node among ``net_n``, uniform
    k-subset of objects, objects homed uniformly at random), drawn in
    bulk with numpy ``CHUNK_WINDOWS`` windows at a time.
    """
    homes_rng = np.random.default_rng([seed, 1])
    homes = {
        o: int(h) for o, h in
        enumerate(homes_rng.integers(net_n, size=workload.objects))
    }
    rng = np.random.default_rng([seed, 2])
    per_window: List[List[TimedTransaction]] = []
    tid, storm, w = 0, False, workload.window
    for first in range(0, windows, CHUNK_WINDOWS):
        nwin = min(CHUNK_WINDOWS, windows - first)
        counts, storm = _counts(rng, workload.rates, nwin * w, storm)
        total = int(counts.sum())
        releases = np.repeat(np.arange(first * w, (first + nwin) * w), counts)
        nodes = rng.integers(net_n, size=total)
        objs = _k_subsets(rng, total, workload.objects, OBJECTS_PER_TXN)
        txns = [
            TimedTransaction(int(r), Transaction(tid + i, int(v), row))
            for i, (r, v, row) in enumerate(
                zip(releases.tolist(), nodes.tolist(), objs.tolist())
            )
        ]
        tid += total
        bounds = np.searchsorted(
            releases, np.arange(first, first + nwin + 1) * w
        )
        per_window.extend(
            txns[bounds[i]:bounds[i + 1]] for i in range(nwin)
        )
    return homes, per_window


def fault_plan(net, workload: ServiceWorkload, seed: int,
               windows: int) -> FaultPlan:
    """Poisson(1) short faults per window: link, stall or delay spike.

    Each event lasts 2-9 steps, so every one is absorbable by the
    reactive engine's bounded retries and no transaction is lost.
    """
    rng = np.random.default_rng([seed, 3])
    edges = [(u, v) for u, v, _ in net.edges()]
    w = workload.window
    events: List[object] = []
    for win in range(windows):
        for _ in range(int(rng.poisson(1.0))):
            kind = int(rng.integers(3))
            start = win * w + int(rng.integers(w))
            end = start + int(rng.integers(2, 10))
            if kind == 1:
                events.append(
                    ObjectStall(int(rng.integers(workload.objects)), start, end)
                )
                continue
            u, v = edges[int(rng.integers(len(edges)))]
            if kind == 0:
                events.append(LinkFailure(u, v, start, end))
            else:
                factor = 1.5 + 2.5 * float(rng.random())
                events.append(DelaySpike(u, v, start, end, factor))
    return FaultPlan(events, network=net)


class ReplayStream:
    """Feeds pre-generated windows to the service (stream duck type).

    Implements the surface ``SchedulingService`` reads -- ``network``,
    ``object_homes``, ``limit``, ``exhausted``, ``window`` and
    ``state_dict`` -- over a list of per-window arrival lists.
    """

    limit = None
    exhausted = False

    def __init__(self, net, homes: Dict[int, int],
                 per_window: List[List[TimedTransaction]], window: int) -> None:
        self.network = net
        self.object_homes = homes
        self._per_window = per_window
        self._window = window
        self._clock = 0

    def window(self, start: int, end: int) -> List[TimedTransaction]:
        if start != self._clock or end - start != self._window:
            raise ValueError(f"replay expects window [{self._clock}, "
                             f"{self._clock + self._window}), got "
                             f"[{start}, {end})")
        self._clock = end
        return self._per_window[start // self._window]

    def state_dict(self) -> Dict[str, object]:
        return {"clock": self._clock}


# ---------------------------------------------------------------------- #
# passes
# ---------------------------------------------------------------------- #


@dataclass
class PassResult:
    """What one measured pass produced."""

    digest: str
    #: windows executed (per worker, in the cluster): the operations
    windows: int
    committed: int
    wall_s: float
    #: wall seconds per window, keyed by window index in-process and by
    #: ``(worker, window)`` in the cluster -- the same keys every pass
    window_s: Dict[object, float]
    #: per-layer values read from the pass's report, by metric name
    stats: Dict[str, float]


def window_minima(passes: List[PassResult]) -> Dict[object, float]:
    """Each window's minimum time over ``passes``."""
    return {k: min(p.window_s[k] for p in passes) for k in passes[0].window_s}


def _report_stats(report) -> Dict[str, float]:
    """The service layer's outcome metrics from a service or cluster
    report (both carry the same accounting and sojourn fields)."""
    failed = report.shed + report.expired + report.lost
    return {
        "service.shed": report.shed,
        "service.failed_frac": failed / max(report.released, 1),
        "service.sojourn_p50_steps": report.sojourn_p50,
        "service.sojourn_p99_steps": report.sojourn_p99,
    }


class ServiceBench:
    """A service workload's network, inputs and pass loop."""

    def __init__(self, workload: ServiceWorkload, seed: int,
                 windows: int) -> None:
        self.workload = workload
        self.windows = windows
        self.net = network_from_sizes(workload.topology, workload.size)
        self.net.distance_matrix  # the all-pairs solve is set-up
        self.homes, self.per_window = service_inputs(
            workload, seed, windows, self.net.n)
        self.plan = (
            fault_plan(self.net, workload, seed, windows)
            if workload.faults else None
        )
        self.run_pass(min(WARMUP_WINDOWS, windows))

    def setup_once(self) -> float:
        """Seconds to build the network, its distances and the service."""
        t0 = perf_counter()
        net = network_from_sizes(self.workload.topology, self.workload.size)
        net.distance_matrix
        self.service(net)
        return perf_counter() - t0

    def service(self, net=None) -> SchedulingService:
        net = net if net is not None else self.net
        stream = ReplayStream(net, self.homes, self.per_window,
                              self.workload.window)
        return SchedulingService(stream, self.workload.config(),
                                 plan=self.plan)

    def run_pass(self, windows: Optional[int] = None) -> PassResult:
        windows = self.windows if windows is None else windows
        service = self.service()
        times: List[float] = []
        for i in range(windows):
            t0 = perf_counter()
            service.run_window(i)
            times.append(perf_counter() - t0)
        acct = service.accounting()
        settled = (acct["committed"] + acct["shed"] + acct["expired"]
                   + acct["lost"] + acct["backlog"])
        if settled != acct["released"]:
            raise AssertionError(f"accounting identity violated: {acct}")
        report = service.report()
        stats = _report_stats(report)
        stats["service.deferred"] = report.deferred_admissions
        stats["service.backlog_peak"] = report.peak_backlog
        return PassResult(
            digest=digest(service.snapshot_state()["commits"]),
            windows=windows,
            committed=acct["committed"],
            wall_s=sum(times),
            window_s=dict(enumerate(times)),
            stats=stats,
        )

    def timing(self, passes: List[PassResult]):
        """``(throughput_txn_s, window seconds)``: the committed
        transactions over the sum of the per-window minima."""
        minima = np.array(list(window_minima(passes).values()))
        return passes[0].committed / float(minima.sum()), minima

    def close(self) -> None:
        pass


class WindowGaps:
    """Cluster window latency: the time between a worker's consecutive
    ``cluster_window`` sends, reset by each ``hello`` so restarts and
    journal replays are not counted as windows.

    The worker's ``encode_message`` stamps ``hello`` and window messages
    with the worker's clock (``perf_counter`` is system-wide), and the
    supervisor's ``decode_message`` reads the stamps back: the
    supervisor's own receive times jitter by a scheduling slice whenever
    both workers hold the two cores.
    """

    STAMP = "bench_sent_s"

    def __init__(self) -> None:
        self.gaps: Dict[Tuple[int, int], float] = {}
        self._last: Dict[int, float] = {}
        self._originals: Optional[Tuple[Callable, Callable]] = None

    def install(self) -> None:
        encode = worker_mod.encode_message
        decode = supervisor_mod.decode_message
        self._originals = (encode, decode)
        stamp = self.STAMP

        def encode_message(kind, body):
            if kind in (MSG_WINDOW, MSG_HELLO):
                body = dict(body, **{stamp: perf_counter()})
            return encode(kind, body)

        def decode_message(text, *args, **kwargs):
            kind, body = decode(text, *args, **kwargs)
            if kind == MSG_WINDOW:
                worker = body["worker"]
                last = self._last.get(worker)
                if last is not None:
                    self.gaps[(worker, body["window"])] = body[stamp] - last
                self._last[worker] = body[stamp]
            elif kind == MSG_HELLO:
                self._last[body["worker"]] = body[stamp]
            return kind, body

        worker_mod.encode_message = encode_message
        supervisor_mod.decode_message = decode_message

    def take(self) -> Dict[Tuple[int, int], float]:
        """Gaps recorded since the last call, by ``(worker, window)``."""
        gaps, self.gaps, self._last = self.gaps, {}, {}
        return gaps

    def uninstall(self) -> None:
        if self._originals is not None:
            worker_mod.encode_message, supervisor_mod.decode_message = (
                self._originals)
            self._originals = None


def _busiest_worker_s(window_s: Dict[Tuple[int, int], float]) -> float:
    """The largest per-worker sum of ``(worker, window)`` gaps."""
    per_worker: Dict[int, float] = {}
    for (worker, _), gap in window_s.items():
        per_worker[worker] = per_worker.get(worker, 0.0) + gap
    return max(per_worker.values())


class ClusterBench:
    """The cluster workload: ``run_cluster`` jobs with two worker kills."""

    def __init__(self, workload: ClusterWorkload, seed: int, windows: int,
                 workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.windows = windows
        self.workdir = workdir
        self._jobs = 0
        self.gaps = WindowGaps()
        self.gaps.install()

    def _stream(self) -> StreamSpec:
        w = self.workload
        return StreamSpec(kind="poisson", w=w.objects, k=OBJECTS_PER_TXN,
                          rate=w.rate, seed=self.seed)

    def _chaos(self, windows: int) -> ChaosPlan:
        mid = windows // 2
        return ChaosPlan([
            WorkerKill(0, mid), WorkerKill(1, min(mid + 3, windows - 1)),
        ])

    def run_job(self, windows: int, chaos: bool = True):
        """One ``run_cluster`` call in a fresh journal directory.

        Returns ``(report, wall_s, journal_bytes)`` and removes the
        directory.
        """
        w = self.workload
        self._jobs += 1
        path = self.workdir / f"job-{self._jobs}"
        config = ClusterConfig(
            workers=w.workers, windows=windows,
            checkpoint_every=w.checkpoint_every,
            heartbeat_timeout_s=60.0, journal_dir=str(path),
        )
        service = ServiceConfig(window=w.window, high_water=1 << 30,
                                algo="auto")
        t0 = perf_counter()
        try:
            report = run_cluster(
                w.topology, w.size, stream=self._stream(), service=service,
                config=config, chaos=self._chaos(windows) if chaos else None,
            )
            wall = perf_counter() - t0
            journal_bytes = sum(
                p.stat().st_size for p in path.glob("*.journal.jsonl"))
        finally:
            shutil.rmtree(path, ignore_errors=True)
        if not report.accounted:
            raise AssertionError("cluster accounting identity violated")
        return report, wall, journal_bytes

    def setup_once(self) -> float:
        """Wall seconds of a one-window job with the same configuration."""
        return self.run_job(1, chaos=False)[1]

    def run_pass(self) -> PassResult:
        self.gaps.take()
        report, wall, journal_bytes = self.run_job(self.windows)
        stats = _report_stats(report)
        stats["journal.bytes"] = journal_bytes
        stats["cluster.replayed_windows"] = sum(
            int(p["replayed"]) for p in report.per_worker)
        stats["cluster.restarts"] = report.restarts
        return PassResult(
            digest=digest(report.parity_key()),
            windows=self.windows * self.workload.workers,
            committed=report.committed,
            wall_s=wall,
            window_s=self.gaps.take(),
            stats=stats,
        )

    def timing(self, passes: List[PassResult]):
        """``(throughput_txn_s, window seconds)`` of a run's jobs.

        A job's wall time is its slower worker's windows plus what lies
        outside windows (fork, start-up, kill recovery, merge); both
        parts are taken at their minimum over the jobs.
        """
        minima = window_minima(passes)
        outside = min(p.wall_s - _busiest_worker_s(p.window_s)
                      for p in passes)
        timed = outside + _busiest_worker_s(minima)
        return passes[0].committed / timed, np.array(list(minima.values()))

    def close(self) -> None:
        self.gaps.uninstall()
