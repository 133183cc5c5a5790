"""Tests for the unified Report protocol (repro.analysis.report)."""

import json

import numpy as np
import pytest

from repro.analysis import (
    REPORT_KINDS,
    Evaluation,
    Report,
    evaluate,
    report_from_json,
)
from repro.core import GreedyScheduler
from repro.errors import ReproError
from repro.io import SCHEMA_VERSION
from repro.network import clique
from repro.workloads import random_k_subsets


def _evaluation():
    rng = np.random.default_rng(3)
    inst = random_k_subsets(clique(8), w=6, k=2, rng=rng)
    return evaluate(GreedyScheduler(), inst, rng)


def _degradation():
    from repro.core.dispatch import resolve_scheduler
    from repro.faults import (
        degradation_report,
        faulty_execute,
        random_fault_plan,
    )
    from repro.network import grid

    net = grid(5)
    rng = np.random.default_rng(7)
    inst = random_k_subsets(net, 10, 2, rng)
    sched = resolve_scheduler(
        topology=inst.network.topology.name
    ).schedule(inst, rng)
    plan = random_fault_plan(net, horizon=sched.makespan, rng=rng,
                             crash_rate=0.05, objects=inst.objects)
    return degradation_report(sched, plan, faulty_execute(sched, plan))


def _online_degradation():
    from repro.faults.plan import random_fault_plan
    from repro.online.arrivals import poisson_workload
    from repro.online.resilient import run_resilient

    net = clique(8)
    wl = poisson_workload(net, w=6, k=2, rate=0.7, count=6,
                          rng=np.random.default_rng(11))
    plan = random_fault_plan(net, horizon=20, rng=np.random.default_rng(5))
    return run_resilient(wl, plan=plan).report


class TestRoundTrips:
    def test_evaluation_round_trip(self):
        ev = _evaluation()
        assert Evaluation.from_json(ev.to_json()) == ev

    def test_degradation_round_trip(self):
        rep = _degradation()
        assert type(rep).from_json(rep.to_json()) == rep

    def test_online_degradation_round_trip(self):
        rep = _online_degradation()
        assert type(rep).from_json(rep.to_json()) == rep

    def test_tuple_fields_survive(self):
        rep = _online_degradation()
        back = type(rep).from_json(rep.to_json())
        assert isinstance(back.lost, tuple)
        assert all(isinstance(p, tuple) for p in back.lost)


class TestDispatch:
    def test_report_from_json_dispatches_each_kind(self):
        for rep in (_evaluation(), _degradation(), _online_degradation()):
            back = report_from_json(rep.to_json())
            assert type(back) is type(rep)
            assert back == rep

    def test_all_three_kinds_registered(self):
        assert {"evaluation", "degradation", "online_degradation"} <= set(
            REPORT_KINDS
        )

    def test_envelope_shape(self):
        doc = json.loads(_evaluation().to_json())
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["kind"] == "evaluation"
        assert "body" in doc

    def test_unknown_kind_raises(self):
        bad = json.dumps(
            {"schema_version": SCHEMA_VERSION, "kind": "nope",
             "body": {}}
        )
        with pytest.raises(ReproError, match="unknown report kind"):
            report_from_json(bad)

    def test_wrong_schema_version_raises(self):
        bad = json.dumps(
            {"schema_version": 99, "kind": "evaluation", "body": {}}
        )
        with pytest.raises(ReproError, match="schema_version"):
            report_from_json(bad)

    def test_kind_mismatch_raises(self):
        with pytest.raises(ReproError, match="expected report kind"):
            Evaluation.from_json(_degradation().to_json())

    def test_malformed_json_raises(self):
        with pytest.raises(ReproError, match="malformed"):
            report_from_json("{not json")


class TestProtocol:
    def test_all_reports_satisfy_protocol(self):
        for rep in (_evaluation(), _degradation(), _online_degradation()):
            assert isinstance(rep, Report)
            assert isinstance(rep.as_dict(), dict)
