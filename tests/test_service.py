"""Tests for the continuous-arrival scheduling service.

Covers the robustness contract end to end: watermark backpressure with
hysteresis (defer / shed / strict), deadline expiry, bounded window retry
under unabsorbable faults, crash handling with typed losses, the
reactive engine's one clock and fault slice, saturation detection with
shed-mode degradation, the conservation identity
``committed + shed + expired + lost + final_backlog == released``,
same-seed determinism, commit parity with the step-driven online oracle
on the empty plan, recorder bit-parity, and JSON round-trips through the
report registry.
"""

import collections
import dataclasses

import numpy as np
import pytest

from online_oracle import run_online

import repro.service.loop as service_loop
from repro.core.dispatch import resolve_scheduler
from repro.core.instance import Instance
from repro.core.transaction import Transaction
from repro.errors import InstanceError, OverloadError, ServiceError
from repro.faults.backoff import RetryPolicy
from repro.faults.plan import (
    DelaySpike,
    FaultPlan,
    LinkFailure,
    NodeCrash,
    ObjectStall,
    random_fault_plan,
)
from repro.network import TOPOLOGY_INFO, clique, grid, line
from repro.network.registry import network_from_sizes
from repro.obs import MemoryRecorder
from repro.obs.events import CrashEvent, LostEvent
from repro.online.arrivals import OnlineWorkload, TimedTransaction
from repro.service import (
    SaturationDetector,
    SchedulingService,
    ServiceConfig,
    ServiceReport,
    run_service,
)
from repro.service.loop import _Entry
from repro.workloads import AdversarialStream, PoissonStream, spawn


def _stream(net, rate, limit=None, key="svc", w=12, k=2):
    return PoissonStream(net, w=w, k=k, rate=rate, rng=spawn(11, key),
                         limit=limit)


def _rewrite(arrivals, node=None, extra=()):
    """Arrivals with each node replaced by ``node(tid)`` and ``extra``
    objects added."""
    return [
        TimedTransaction(tt.release, Transaction(
            tt.txn.tid, tt.txn.node if node is None else node(tt.txn.tid),
            tt.txn.objects | set(extra)))
        for tt in arrivals
    ]


class _RoundRobinStream(PoissonStream):
    """Poisson arrivals on distinct nodes (node = tid), for parity tests."""

    def window(self, start, end):
        return _rewrite(super().window(start, end),
                        node=lambda tid: tid % self.network.n)


def _burst_once(net, count, rng):
    """A fixed burst at t=0: node i requests object 0 (homed at node 0).

    An adversary with a full bucket of ``count`` dumps it at t=0 on
    nodes 0, 1, ...; with ``k = 1`` every transaction is hot object 0.
    """
    stream = AdversarialStream(net, w=2, k=1, rho=1.0, burst=count, rng=rng,
                               limit=count)
    stream.object_homes = {0: 0, 1: 0}
    return stream


class _UnhomedObjectStream(PoissonStream):
    """Poisson arrivals that also use object 10000, which has no home."""

    def window(self, start, end):
        return _rewrite(super().window(start, end), extra=(10000,))


class _OffNetworkStream(PoissonStream):
    """Poisson arrivals pinned to node 12, outside a grid(3)."""

    def window(self, start, end):
        return _rewrite(super().window(start, end), node=lambda tid: 12)


class TestConfig:
    def test_defaults_valid(self):
        cfg = ServiceConfig()
        assert (cfg.window, cfg.high_water) == (16, 64)
        assert cfg.admission == "defer"
        assert cfg.retry == RetryPolicy()
        assert cfg.drain_mark == cfg.high_water // 2
        assert [f.name for f in dataclasses.fields(cfg)] == [
            "window", "high_water", "deadline", "retry", "detector_horizon",
            "slope_threshold", "algo", "admission",
        ]

    @pytest.mark.parametrize(
        "kw",
        [
            {"window": 0},
            {"high_water": 0},
            {"high_water": -8},
            {"admission": "bounce"},
            {"deadline": 0},
            {"deadline": -5},
            {"detector_horizon": 1},
            {"slope_threshold": 0.0},
            {"slope_threshold": -0.5},
            {"admission": "drop"},
            {"window": -1},
            {"algo": "incremental"},
            {"algo": "nope"},
            {"detector_horizon": 0},
        ],
    )
    def test_bad_config_raises(self, kw):
        with pytest.raises(ServiceError):
            ServiceConfig(**kw)

    def test_known_algos_accepted(self):
        for algo in ("auto", "greedy", "grid", "sequential"):
            assert ServiceConfig(algo=algo).algo == algo

    def test_auto_engine_picks_by_plan(self):
        assert SchedulingService(_stream(grid(3), 0.3)).engine == "batch"
        for plan in (FaultPlan(), FaultPlan([NodeCrash(0, 5)])):
            svc = SchedulingService(_stream(grid(3), 0.3), plan=plan)
            assert svc.engine == "reactive"


class TestSaturationDetector:
    def test_flat_queue_never_trips(self):
        det = SaturationDetector(horizon=4, slope_threshold=0.5, min_backlog=2)
        for _ in range(20):
            det.observe(5)
        assert not det.saturated and det.trips == 0

    def test_growth_below_floor_never_trips(self):
        det = SaturationDetector(horizon=3, slope_threshold=0.1,
                                 min_backlog=100)
        for q in range(30):
            det.observe(q)
        assert not det.saturated

    def test_linear_growth_trips_once_horizon_fills(self):
        det = SaturationDetector(horizon=4, slope_threshold=0.5, min_backlog=4)
        states = [det.observe(2 * i) for i in range(6)]
        assert det.saturated
        assert det.tripped_at is not None
        # never rules before the horizon fills
        assert all(s == "nominal" for s in states[:3])
        # slope of 2i per window is exactly 2
        assert det.slope() == pytest.approx(2.0)

    def test_hysteresis_clears_only_after_drain(self):
        det = SaturationDetector(horizon=3, slope_threshold=0.5, min_backlog=5)
        for q in (5, 10, 15):
            det.observe(q)
        assert det.saturated
        det.observe(15)  # flat but still high: stays tripped
        assert det.saturated
        det.observe(2)  # drained below the floor: clears
        assert not det.saturated
        assert det.trips == 1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ServiceError):
            SaturationDetector(horizon=1)
        det = SaturationDetector()
        with pytest.raises(ServiceError):
            det.observe(-1)


class TestServiceBasics:
    def test_finite_stream_drains_and_accounts(self):
        rep = run_service(_stream(grid(4), 0.5, limit=30))
        assert rep.released == 30
        assert rep.committed == 30
        assert rep.final_backlog == 0
        assert rep.accounted
        assert rep.sojourn_p99 >= rep.sojourn_p50 > 0

    def test_same_seed_same_report(self):
        rep1 = run_service(_stream(grid(4), 0.7, limit=40))
        rep2 = run_service(_stream(grid(4), 0.7, limit=40))
        assert rep1 == rep2

    def test_unbounded_stream_requires_window_count(self):
        with pytest.raises(ServiceError, match="window count"):
            run_service(_stream(grid(4), 0.5))

    def test_bad_window_count(self):
        with pytest.raises(ServiceError):
            run_service(_stream(grid(4), 0.5, limit=10), windows=0)

    def test_incremental_windows_match_one_shot(self):
        svc = SchedulingService(_stream(grid(4), 0.6, limit=30))
        svc.run(windows=3)
        rep_inc = svc.run()  # drain the rest
        rep_one = run_service(_stream(grid(4), 0.6, limit=30))
        assert rep_inc == rep_one

    def test_report_json_round_trip(self):
        rep = run_service(_stream(grid(4), 0.5, limit=20))
        assert ServiceReport.from_json(rep.to_json()) == rep

    def test_report_registered_and_dispatches(self):
        from repro.analysis.report import REPORT_KINDS, report_from_json

        rep = run_service(_stream(grid(4), 0.5, limit=20))
        loaded = report_from_json(rep.to_json())
        assert isinstance(loaded, ServiceReport) and loaded == rep
        assert REPORT_KINDS["service"] is ServiceReport

    def test_save_load_report(self, tmp_path):
        from repro.io import load_report, save_report

        rep = run_service(_stream(grid(4), 0.5, limit=20))
        path = tmp_path / "svc.json"
        save_report(rep, path)
        assert load_report(path) == rep

    def test_render_mentions_the_verdict(self):
        rep = run_service(_stream(grid(4), 0.5, limit=20))
        text = rep.render()
        assert "never saturated" in text and "committed" in text

    @pytest.mark.parametrize("windows", [8, 64])
    def test_state_keeps_counts_not_histories(self, windows):
        # the snapshot's sojourns are one [value, count] pair per
        # distinct sojourn, so a stable service's state stops growing
        net = grid(4)
        svc = SchedulingService(_stream(net, 0.5), ServiceConfig(window=8))
        rep = svc.run(windows)
        assert not rep.saturated
        state = svc.snapshot_state()
        release = {
            tt.txn.tid: tt.release
            for tt in _stream(net, 0.5).window(0, 8 * windows)
        }
        sojourns = collections.Counter(
            t - release[int(tid)] for tid, t in state["commits"].items()
        )
        assert state["sojourns"] == sorted(map(list, sojourns.items()))
        assert len(state["sojourns"]) < rep.committed
        for key in ("shed", "expired", "lost"):
            assert type(state[key]) is int


class TestBackpressure:
    def test_shed_bounds_the_backlog(self):
        cfg = ServiceConfig(window=8, high_water=10, admission="shed",
                            slope_threshold=100.0)
        rep = run_service(_stream(line(6), 3.0, key="hot", w=8, k=3),
                          windows=30, config=cfg)
        assert rep.shed > 0
        assert rep.peak_backlog <= 10
        assert rep.accounted

    def test_defer_loses_nothing(self):
        # slope_threshold high enough that the detector never flips the
        # service into shed mode: pure defer, every release kept
        cfg = ServiceConfig(window=8, high_water=10, admission="defer",
                            slope_threshold=1000.0)
        rep = run_service(_stream(line(6), 3.0, key="hot", w=8, k=3),
                          windows=30, config=cfg)
        assert rep.shed == 0
        assert rep.deferred_admissions > 0
        assert rep.committed + rep.final_backlog == rep.released
        assert rep.accounted

    def test_strict_raises_overload(self):
        cfg = ServiceConfig(window=8, high_water=4, admission="strict",
                            slope_threshold=1000.0)
        with pytest.raises(OverloadError):
            run_service(_stream(line(6), 3.0, key="hot", w=8, k=3),
                        windows=30, config=cfg)

    def test_gate_hysteresis(self):
        svc = SchedulingService(
            _stream(grid(4), 0.5), ServiceConfig(high_water=8),
        )
        dummy = [_Entry(None, 0) for _ in range(8)]
        svc._backlog = list(dummy)
        svc._update_gate()
        assert not svc._gate_open  # closed at high water
        svc._backlog = dummy[:4]
        svc._update_gate()
        assert not svc._gate_open  # still closed down to half of it
        svc._backlog = dummy[:3]
        svc._update_gate()
        assert svc._gate_open  # reopens only below 8 // 2

    def test_high_water_one_reopens_and_drains(self):
        # the drain mark is max(1, high_water // 2): with a
        # high-water mark of 1 the gate reopens on an empty backlog
        # instead of never, so a finite stream drains
        svc = SchedulingService(
            _stream(grid(4), 0.1, limit=20, w=8),
            ServiceConfig(window=4, high_water=1),
        )
        rep = svc.run(max_windows=500)
        assert rep.windows < 500
        assert rep.committed == rep.released == 20
        assert rep.final_backlog == 0
        assert rep.accounted
        assert svc.config.drain_mark == 1


class TestDeadlines:
    def test_expiry_is_counted_not_silent(self):
        cfg = ServiceConfig(window=8, high_water=16, deadline=20,
                            slope_threshold=1000.0)
        rep = run_service(_stream(line(6), 3.0, key="hot", w=8, k=3),
                          windows=30, config=cfg)
        assert rep.expired > 0
        assert rep.accounted


class TestFaults:
    def test_crash_losses_are_typed_and_accounted(self):
        net = grid(4)
        plan = FaultPlan([NodeCrash(net.n - 1, 20)])
        rep = run_service(_stream(net, 0.6, limit=50), plan=plan)
        assert rep.engine == "reactive"
        assert rep.lost > 0
        assert rep.accounted
        assert rep.committed + rep.lost == rep.released

    def test_objects_homed_on_a_crashed_node_are_unrecoverable(self):
        net = grid(4)
        stream = _stream(net, 0.6, limit=60)
        dead = stream.object_homes[0]
        rec = MemoryRecorder()
        svc = SchedulingService(stream, plan=FaultPlan([NodeCrash(dead, 20)]),
                                recorder=rec)
        svc.run()
        state = svc.snapshot_state()
        assert state["unrecoverable"] == sorted(
            o for o, home in stream.object_homes.items() if home == dead
        )
        lost = [e for e in rec.events if e.kind == "lost"]
        assert len(lost) == len({e.tid for e in lost}) == state["lost"]
        assert any("unrecoverable" in e.reason for e in lost)

    def test_a_crash_loses_the_backlog_it_dooms(self):
        # tid 4 waits on node 3 behind tid 0 (one transaction per node
        # per batch) when node 3 crashes mid-window 0: the crash loses it
        # from the backlog, so it never commits on the dead node
        def stream():
            return PoissonStream(grid(3), w=8, k=2, rate=1.2,
                                 rng=spawn(0, "p"), limit=80)

        rec = MemoryRecorder()
        svc = SchedulingService(
            stream(),
            ServiceConfig(window=4, high_water=64, slope_threshold=1000.0),
            plan=FaultPlan([NodeCrash(3, 5)]), recorder=rec,
        )
        assert svc.run().accounted
        assert LostEvent(5, 4, "node 3 crashed") in rec.events
        node_of = {tt.txn.tid: tt.txn.node for tt in stream().take(80)}
        late = [
            tid for tid, t in svc.snapshot_state()["commits"].items()
            if node_of[int(tid)] == 3 and t >= 5
        ]
        assert late == []

    @pytest.mark.parametrize("crash_at", [5, 6, 7])
    def test_a_reactive_loss_is_stamped_when_it_happens(self, crash_at):
        # node 3 crashes while window 0's batch runs: the batch's tid 0,
        # hosted there, is lost at the crash, not when the batch started
        rec = MemoryRecorder()
        svc = SchedulingService(
            PoissonStream(grid(3), w=8, k=2, rate=1.2, rng=spawn(0, "p"),
                          limit=80),
            ServiceConfig(window=4, high_water=64, slope_threshold=1000.0),
            plan=FaultPlan([NodeCrash(3, crash_at)]), recorder=rec,
        )
        svc.run()
        lost = [e for e in rec.events if isinstance(e, LostEvent)
                and e.reason == "node 3 crashed"]
        assert lost
        assert all(e.time >= crash_at for e in lost)
        assert LostEvent(crash_at, 0, "node 3 crashed") in lost

    def test_the_crash_the_last_batch_meets_is_recorded(self):
        # the only batch runs past its window into node 4's crash at t=8,
        # and the run ends with that window: crash and loss both recorded
        # once, at the crash
        rec = MemoryRecorder()
        svc = SchedulingService(
            _burst_once(line(5), count=5, rng=spawn(11, "burst")),
            ServiceConfig(window=4), plan=FaultPlan([NodeCrash(4, 8)]),
            recorder=rec,
        )
        rep = svc.run()
        assert (rep.windows, rep.committed, rep.lost) == (1, 4, 1)
        outcomes = [e for e in rec.events
                    if isinstance(e, (CrashEvent, LostEvent))]
        assert outcomes == [
            CrashEvent(8, 4), LostEvent(8, 4, "node 4 crashed"),
        ]

    def test_no_crash_dooms_a_release_before_it_happens(self):
        # window 6's batch meets node 0's crash at t=36 but ends at 35, so
        # window 7 admits at 35 while node 0 is still up: nothing may be
        # lost to that crash before it happens
        stream = PoissonStream(grid(3), w=6, k=2, rate=0.8,
                               rng=spawn(0, "p"), limit=40)
        dead_objects = {
            o for o, home in stream.object_homes.items() if home == 0}
        rec = MemoryRecorder()
        svc = SchedulingService(
            stream, ServiceConfig(window=4),
            plan=FaultPlan([NodeCrash(0, 36)]), recorder=rec,
        )
        assert svc.run().accounted
        lost = [e for e in rec.events if isinstance(e, LostEvent)]
        txn_of = {
            tt.txn.tid: tt.txn for tt in PoissonStream(
                grid(3), w=6, k=2, rate=0.8, rng=spawn(0, "p"),
                limit=40).take(40)
        }
        doomed = [e for e in lost
                  if txn_of[e.tid].node == 0
                  or txn_of[e.tid].objects & dead_objects]
        assert doomed  # the crash does doom releases, from t=36 on
        assert all(e.time >= 36 for e in doomed)
        assert LostEvent(36, 15, "node 0 crashed") in lost

    def test_a_failed_window_loses_what_its_crash_doomed(self):
        # node 1 crashes while window 0's batch runs, then the cut link
        # fails the window: tid 1 must not be requeued and commit on the
        # dead node once the link heals
        plan = FaultPlan([LinkFailure(2, 3, 0, 40), NodeCrash(1, 17)])
        cfg = ServiceConfig(retry=RetryPolicy(max_retries=2, max_wait=2))
        svc = SchedulingService(
            _burst_once(line(5), count=5, rng=spawn(11, "burst")),
            cfg, plan=plan,
        )
        rep = svc.run()
        assert (rep.committed, rep.lost, rep.window_retries) == (4, 1, 4)
        assert "1" not in svc.snapshot_state()["commits"]

    def test_window_retry_backs_off_then_drops(self):
        # a permanent partition on a line: object 0 lives across the cut,
        # every window fails, retries back off, budget finally exhausts
        net = line(4)
        stream = _burst_once(net, count=3, rng=spawn(11, "burst"))
        plan = FaultPlan([LinkFailure(1, 2, 0, None)])
        cfg = ServiceConfig(
            window=4,
            retry=RetryPolicy(max_retries=2, max_wait=2),
            slope_threshold=1000.0,
        )
        rep = run_service(stream, windows=30, config=cfg, plan=plan)
        assert rep.window_retries > 0
        assert rep.lost > 0  # retry budget exhausted, typed drop
        assert rep.final_backlog == 0
        assert rep.accounted

    def test_empty_plan_reactive_commits_everything(self):
        rep = run_service(_stream(grid(4), 0.5, limit=30), plan=FaultPlan())
        assert rep.engine == "reactive"
        assert rep.committed == rep.released == 30
        assert rep.accounted

    def test_window_plan_slices_match_a_full_scan(self, monkeypatch):
        # the cursor over start-sorted events must hand every batch the
        # slice a scan of the whole plan would: the plan's own events,
        # unshifted -- long, permanent and window-straddling ones
        # included -- then the crashes
        net = grid(4)
        u, v, _ = next(net.edges())
        drawn = random_fault_plan(
            net, 400, np.random.default_rng(3), intensity=0.4,
            crash_rate=0.05, permanent_fraction=0.2, objects=range(12),
        )
        # idle windows start at multiples of 16: events on those edges
        plan = FaultPlan(drawn.events + (
            LinkFailure(u, v, 32, 48), ObjectStall(0, 48, 50),
            DelaySpike(u, v, 64, 80, 2.0), LinkFailure(u, v, 96, None),
        ))
        svc = SchedulingService(_stream(net, 0.5, limit=200), plan=plan)
        sliced = []
        real = svc._window_plan

        def spy(first, until, crashes):
            got = real(first, until, crashes)
            sliced.append((first, until, crashes, got.events))
            return got

        monkeypatch.setattr(svc, "_window_plan", spy)
        svc.run()
        assert len(sliced) > 10
        for first, until, crashes, got in sliced:
            want = [
                e for e in plan.events
                if not isinstance(e, NodeCrash) and e.start < until
                and (e.end is None or e.end > first)
            ] + list(crashes)
            assert len(got) == len(want)
            assert all(g is e for g, e in zip(got, want))

    def test_a_batch_meets_every_fault_that_starts_before_its_last_commit(
        self, monkeypatch
    ):
        # each run has a batch still running when a delay spike or a
        # link failure starts after its window's end: the batch reruns
        # against it, so its final plan holds every windowed event
        # live at its release that starts before its last commit
        runs = []
        real = service_loop.run_resilient

        def spy(workload, plan, **kw):
            res = real(workload, plan, **kw)
            if runs and runs[-1][0] is workload:
                runs.pop()  # a rerun replaces the batch's earlier run
            runs.append((workload, plan, res))
            return res

        monkeypatch.setattr(service_loop, "run_resilient", spy)
        window = 4
        for seed, limit in ((9, 20), (13, 60), (15, 20)):
            net = line(9)
            plan = random_fault_plan(
                net, 400, np.random.default_rng(seed), intensity=0.3)
            runs.clear()
            svc = SchedulingService(
                PoissonStream(net, w=8, k=2, rate=0.6,
                              rng=spawn(seed, "s"), limit=limit),
                ServiceConfig(window=window, high_water=64,
                              slope_threshold=1000.0),
                plan=plan,
            )
            assert svc.run().accounted
            overruns = 0
            for workload, got, res in runs:
                first = workload.arrivals[0].release
                last = max(res.commits.values(), default=first)
                for e in plan.events:
                    if isinstance(e, NodeCrash) or e.start >= last:
                        continue
                    if e.end is None or e.end > first:
                        assert e in got.events, (seed, first, last, e)
                        overruns += e.start >= first - 1 + window
            assert overruns >= 1, seed

    def test_a_reactive_trace_records_each_outcome_once(self):
        # the service records every admission decision, commit and loss
        # on its own clock, and each crash at its own time; the run
        # inside a window records nothing
        rec = MemoryRecorder()
        svc = SchedulingService(
            PoissonStream(grid(3), w=8, k=2, rate=1.2,
                          rng=spawn(0, "p"), limit=80),
            ServiceConfig(window=4, high_water=64, slope_threshold=1000.0),
            plan=FaultPlan([NodeCrash(3, 5)]), recorder=rec,
        )
        report = svc.run()
        kinds = collections.Counter(e.kind for e in rec.events)
        assert kinds["commit"] == report.committed == 49
        lost = [e for e in rec.events if e.kind == "lost"]
        assert len(lost) == len({e.tid for e in lost}) == report.lost == 31
        reg = rec.registry
        assert kinds["admission"] == sum(
            reg.counter(f"service.{name}").value
            for name in ("admitted", "deferred", "shed")
        )
        assert [
            (e.time, e.node) for e in rec.events if e.kind == "crash"
        ] == [(5, 3)]
        assert set(kinds) == {"admission", "commit", "lost", "crash"}


#: one small size per topology family (see ``network_from_sizes``)
_FAMILY_SIZES = {
    "clique": 8, "line": 8, "grid": 3, "cluster": 2, "hypercube": 3,
    "butterfly": 2, "star": 2, "torus": 3, "ddim-grid": 3, "lb-grid": 4,
    "lb-tree": 4, "shard-cluster": 2, "fog-hierarchy": 2,
}


class TestBatchEngine:
    """The fault-free engine runs the topology scheduler once per window."""

    @pytest.mark.parametrize("family", sorted(TOPOLOGY_INFO))
    def test_windows_equal_the_topology_scheduler(self, family):
        net = network_from_sizes(family, _FAMILY_SIZES[family])
        window = 4
        stream = _stream(net, 0.8, limit=24, key=family, w=6)
        rng = np.random.default_rng(5)
        rec = MemoryRecorder()
        svc = SchedulingService(stream, ServiceConfig(window=window),
                                rng=rng, recorder=rec)
        ref = resolve_scheduler(topology=family)
        ref_rng = np.random.default_rng(5)
        busy_until = seen = index = windows_with_commits = 0
        while not (stream.exhausted and svc.queue_length == 0):
            svc.run_window(index)
            commits = [e for e in rec.events[seen:] if e.kind == "commit"]
            seen = len(rec.events)
            exec_start = max((index + 1) * window, busy_until)
            index += 1
            if not commits:
                continue
            windows_with_commits += 1
            txns = sorted(
                (Transaction(e.tid, e.node, e.objects) for e in commits),
                key=lambda t: t.tid,
            )
            used = sorted({o for t in txns for o in t.objects})
            homes = {o: stream.object_homes[o] for o in used}
            want = ref.schedule(Instance(net, txns, homes), ref_rng)
            assert {e.tid: e.time - exec_start for e in commits} == (
                want.commit_times
            )
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            busy_until = exec_start + want.makespan
        rep = svc.report()
        assert rep.committed == rep.released == 24
        assert windows_with_commits >= 2


class TestStreamInputErrors:
    """Bad stream transactions fail typed, naming the culprit."""

    @pytest.mark.parametrize("plan", [None, FaultPlan()],
                             ids=["batch", "reactive"])
    def test_unhomed_object_is_named(self, plan):
        stream = _UnhomedObjectStream(grid(3), w=6, k=2, rate=0.5,
                                      rng=spawn(11, "unhomed"))
        with pytest.raises(InstanceError, match="object 10000"):
            run_service(stream, windows=4, plan=plan)

    @pytest.mark.parametrize("plan", [None, FaultPlan()],
                             ids=["batch", "reactive"])
    def test_node_outside_network_is_named(self, plan):
        stream = _OffNetworkStream(grid(3), w=6, k=2, rate=0.5,
                                   rng=spawn(11, "off-network"))
        with pytest.raises(InstanceError, match="node 12 outside"):
            run_service(stream, windows=4, plan=plan)


class TestRunOnlineParity:
    def test_commit_counts_match_run_online(self):
        # same arrival sequence, empty plan, sub-saturation rate: the
        # reactive service commits exactly the transactions the
        # step-driven online oracle commits
        net = clique(12)
        svc_stream = _RoundRobinStream(net, w=10, k=2, rate=0.4,
                                       rng=spawn(11, "par"), limit=10)
        ref_stream = _RoundRobinStream(net, w=10, k=2, rate=0.4,
                                       rng=spawn(11, "par"), limit=10)
        arrivals = ref_stream.take(10)
        workload = OnlineWorkload(net, arrivals, ref_stream.object_homes)
        healthy = run_online(workload)
        rep = run_service(svc_stream, plan=FaultPlan())
        assert rep.committed == len(healthy.schedule.commit_times) == 10
        assert rep.released == workload.m
        assert rep.lost == rep.shed == rep.expired == 0


class TestRecorderParity:
    def test_recording_never_changes_the_run(self):
        rec = MemoryRecorder(meta={"run": "svc"})
        rep_rec = run_service(_stream(grid(4), 0.7, limit=40), recorder=rec)
        rep_plain = run_service(_stream(grid(4), 0.7, limit=40))
        assert rep_rec == rep_plain  # bit parity
        reg = rec.registry
        assert reg.counter("service.windows").value == rep_rec.windows
        assert reg.counter("service.commits").value == rep_rec.committed
        assert any(e.kind == "commit" for e in rec.events)
        assert any(e.kind == "admission" for e in rec.events)


class TestSaturationBehavior:
    def test_overload_trips_detector_and_sheds(self):
        cfg = ServiceConfig(window=8, high_water=16, admission="defer",
                            detector_horizon=4, slope_threshold=0.4)
        rep = run_service(_stream(line(8), 3.0, key="hot", w=8, k=3),
                          windows=40, config=cfg)
        assert rep.saturated
        assert rep.saturated_at is not None and rep.saturated_at >= 3
        assert rep.shed_windows > 0
        assert rep.shed > 0  # defer flipped to shed under saturation
        assert rep.accounted

    def test_stable_rate_never_saturates(self):
        rep = run_service(_stream(grid(4), 0.3), windows=50)
        assert not rep.saturated
        assert rep.final_slope < 0.5
        assert rep.mean_backlog < 5
