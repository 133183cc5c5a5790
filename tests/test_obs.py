"""Tests for the observability subsystem (repro.obs).

Covers the metric primitives, event round trips, recorder semantics, the
central guarantee that recording never changes a run (traced/untraced
parity), and trace persistence through the unified serializer.
"""

import json

import numpy as np
import pytest

from repro.errors import ReproError
from repro.obs import (
    DEFAULT_BUCKET_EDGES,
    EVENT_TYPES,
    AdmissionEvent,
    CommitEvent,
    Counter,
    Gauge,
    Histogram,
    HopEvent,
    LeaseRecoveryEvent,
    MemoryRecorder,
    MetricsRegistry,
    NullRecorder,
    NULL_RECORDER,
    PhaseTimer,
    RetryEvent,
    RunTrace,
    active,
    event_from_dict,
    event_to_dict,
    trace_from_dict,
    trace_to_csv,
    trace_to_dict,
)
from repro.network import clique, grid
from repro.workloads.generators import random_k_subsets


class TestMetrics:
    def test_counter_increments(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_gauge_tracks_max(self):
        g = Gauge()
        g.set(3)
        g.set(9)
        g.set(5)
        assert g.value == 5 and g.max_value == 9

    def test_histogram_fixed_buckets(self):
        h = Histogram(edges=(1, 5, 10))
        for v in (0, 1, 3, 7, 100):
            h.observe(v)
        # buckets: <=1, <=5, <=10, >10
        assert h.counts == [2, 1, 1, 1]
        assert h.n == 5 and h.total == 111
        assert h.mean == pytest.approx(111 / 5)

    def test_histogram_rejects_unsorted_edges(self):
        with pytest.raises(ValueError):
            Histogram(edges=(5, 1))

    def test_registry_snapshot_sorted_and_stable(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc(2)
        reg.gauge("z").set(1)
        reg.histogram("h").observe(3)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        assert snap["histograms"]["h"]["edges"] == list(DEFAULT_BUCKET_EDGES)
        # byte-stable under canonical dumps
        a = json.dumps(snap, sort_keys=True)
        b = json.dumps(reg.snapshot(), sort_keys=True)
        assert a == b


class TestEvents:
    def test_every_kind_round_trips(self):
        samples = [
            HopEvent(3, 1, 0, 2),
            CommitEvent(5, 7, 2, (1, 4)),
            RetryEvent(2, 1, 0, 3, 4),
            AdmissionEvent(1, 9, "shed", 6),
            LeaseRecoveryEvent(8, 2, 1, 0, True),
        ]
        for e in samples:
            rec = event_to_dict(e)
            assert rec["kind"] == e.kind
            back = event_from_dict(rec)
            assert back == e

    def test_all_registered_kinds_constructible(self):
        assert set(EVENT_TYPES) >= {
            "hop", "commit", "retry", "reroute", "lease_recovery",
            "admission", "dispatch", "crash", "lost", "session_delta",
        }

    def test_unknown_kind_raises(self):
        with pytest.raises(ReproError, match="unknown"):
            event_from_dict({"kind": "teleport", "time": 1})


class TestRecorders:
    def test_null_recorder_is_disabled_and_inert(self):
        rec = NullRecorder()
        assert not rec.enabled
        rec.record(HopEvent(1, 1, 0, 1))
        rec.count("x")
        rec.gauge("g", 1)
        rec.observe("h", 1)
        with rec.phase("p"):
            pass

    def test_active_resolves_none_to_shared_null(self):
        assert active(None) is NULL_RECORDER
        rec = MemoryRecorder()
        assert active(rec) is rec

    def test_memory_recorder_collects_all_planes(self):
        rec = MemoryRecorder(meta={"experiment": "t"})
        rec.record(CommitEvent(2, 1, 0, (3,)))
        rec.count("c", 2)
        rec.gauge("g", 7)
        rec.observe("h", 4)
        with rec.phase("schedule"):
            pass
        trace = rec.trace()
        assert trace.counts_by_kind() == {"commit": 1}
        assert trace.metrics["counters"]["c"] == 2
        assert trace.metrics["gauges"]["g"]["value"] == 7
        assert [p.name for p in trace.phases] == ["schedule"]
        assert trace.meta["experiment"] == "t"

    def test_phase_timer_reports_on_exception(self):
        sink = []
        with pytest.raises(RuntimeError):
            with PhaseTimer("p", sink.append):
                raise RuntimeError("boom")
        assert len(sink) == 1 and sink[0].name == "p"


def _make_schedule(seed=4):
    from repro.core.dispatch import resolve_scheduler

    net = grid(5)
    inst = random_k_subsets(net, 10, 2, np.random.default_rng(seed))
    sched = resolve_scheduler(
        topology=inst.network.topology.name
    ).schedule(inst, np.random.default_rng(seed))
    sched.validate()
    return sched


class TestParity:
    """Recording must never change what a runtime computes."""

    def test_execute_traced_untraced_identical(self):
        from repro.sim.engine import execute

        sched = _make_schedule()
        plain = execute(sched)
        rec = MemoryRecorder()
        traced = execute(sched, recorder=rec)
        assert plain.as_dict() == traced.as_dict()
        assert rec.trace().hottest_edge == plain.hottest_edge

    def test_run_resilient_traced_untraced_identical(self):
        from repro.faults.plan import random_fault_plan
        from repro.online.arrivals import poisson_workload
        from repro.online.resilient import run_resilient

        net = clique(8)
        wl = poisson_workload(net, w=6, k=2, rate=0.7, count=6,
                              rng=np.random.default_rng(11))
        plan = random_fault_plan(net, horizon=20,
                                 rng=np.random.default_rng(5))
        plain = run_resilient(wl, plan=plan)
        rec = MemoryRecorder()
        traced = run_resilient(wl, plan=plan, recorder=rec)
        assert plain.schedule.commit_times == traced.schedule.commit_times
        assert plain.report == traced.report

    def test_faulty_execute_traced_untraced_identical(self):
        from repro.faults.engine import faulty_execute
        from repro.faults.plan import random_fault_plan

        sched = _make_schedule()
        plan = random_fault_plan(
            sched.instance.network, horizon=sched.makespan,
            rng=np.random.default_rng(5), crash_rate=0.05,
            objects=sched.instance.objects,
        )
        plain = faulty_execute(sched, plan)
        rec = MemoryRecorder()
        traced = faulty_execute(sched, plan, recorder=rec)
        assert plain.as_dict() == traced.as_dict()

    def test_run_experiment_rows_identical_with_recorder(self):
        from repro.experiments.registry import run_experiment

        plain = run_experiment("e1", seed=1, quick=True)
        rec = MemoryRecorder()
        traced = run_experiment("e1", seed=1, quick=True, recorder=rec)
        assert plain.rows == traced.rows
        # the only difference is the appended metrics footnote
        assert traced.notes[:-1] == plain.notes
        assert traced.notes[-1].startswith("metrics: ")


class TestTracePersistence:
    def _trace(self):
        from repro.sim.engine import execute

        rec = MemoryRecorder(meta={"experiment": "t", "seed": 4})
        execute(_make_schedule(), recorder=rec)
        return rec.trace()

    def test_dict_round_trip(self):
        trace = self._trace()
        back = trace_from_dict(trace_to_dict(trace))
        assert back.events == trace.events
        assert back.metrics == trace.metrics
        assert back.meta == trace.meta
        assert back.hottest_edge == trace.hottest_edge

    def test_file_round_trip_via_unified_serializer(self, tmp_path):
        from repro.io import load_trace, save_trace
        from repro.io.serialize import SCHEMA_VERSION

        trace = self._trace()
        path = tmp_path / "t.json"
        save_trace(trace, path)
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["kind"] == "run_trace"
        back = load_trace(path)
        assert back.events == trace.events
        assert back.hottest_edge == trace.hottest_edge

    def test_csv_export_header_and_rows(self):
        trace = self._trace()
        text = trace_to_csv(trace)
        lines = text.strip().split("\n")
        assert lines[0] == "kind,time,detail"
        assert len(lines) == len(trace.events) + 1

    def test_summarize_mentions_headlines(self):
        trace = self._trace()
        digest = trace.summarize()
        assert "events:" in digest
        assert "hottest edge:" in digest
        assert "makespan:" in digest

    def test_empty_trace_summarize(self):
        trace = RunTrace()
        assert trace.hottest_edge is None
        assert trace.makespan == 0
        assert "events: 0 total" in trace.summarize()
