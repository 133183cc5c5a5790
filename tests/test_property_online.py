"""Property-based tests (hypothesis) for the online runtime.

Workloads are drawn by seed: a (topology, seed, count, rate) tuple fully
determines a Poisson arrival stream, so determinism properties can be
stated as "same tuple, same result".  The invariants under test back the
zero-distortion claims:

* the online runtime is a pure function of its seeded inputs;
* no transaction ever commits before its release;
* on the empty fault plan it reproduces the step-driven oracle
  (``tests/online_oracle.py``) field by field, under timestamp and
  random priority alike;
* on repairable plans (no crashes, no permanent failures) it commits
  everything and the sanitizer stays silent.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from online_oracle import run_online

from repro.faults import random_fault_plan
from repro.network import clique, grid, line
from repro.online import (
    poisson_workload,
    random_priority,
    run_resilient,
    timestamp_priority,
)
from repro.sim import InvariantSanitizer
from repro.workloads import root_rng

_NETS = {"clique": clique(12), "grid": grid(4), "line": line(9)}


@st.composite
def workloads(draw):
    net = _NETS[draw(st.sampled_from(sorted(_NETS)))]
    seed = draw(st.integers(min_value=0, max_value=2**20))
    count = draw(st.integers(min_value=2, max_value=min(12, net.n)))
    rate = draw(st.sampled_from([0.5, 1.0, 2.0]))
    return poisson_workload(net, w=max(3, count // 2), k=2, rate=rate,
                            count=count, rng=root_rng(seed))


@given(workloads())
@settings(max_examples=25, deadline=None)
def test_same_seed_same_result(wl):
    a, b = run_resilient(wl), run_resilient(wl)
    assert a.schedule.commit_times == b.schedule.commit_times
    assert a.release == b.release
    assert a.response_times == b.response_times


@given(workloads())
@settings(max_examples=25, deadline=None)
def test_commit_never_precedes_release(wl):
    res = run_resilient(wl)
    for tid, ct in res.schedule.commit_times.items():
        assert ct >= wl.release_of(tid)


@given(workloads(), st.sampled_from([timestamp_priority, random_priority]),
       st.integers(min_value=0, max_value=2**20))
@settings(max_examples=25, deadline=None)
def test_resilient_empty_plan_matches_run_online(wl, prio, seed):
    healthy = run_online(wl, prio, rng=root_rng(seed))
    res = run_resilient(wl, priority=prio, rng=root_rng(seed))
    assert res.schedule is not None
    assert res.schedule.commit_times == healthy.schedule.commit_times
    assert res.commits == healthy.commits
    assert res.release == healthy.release
    assert res.report == healthy.report
    assert res.makespan == healthy.makespan
    assert res.response_times == healthy.response_times
    assert res.report.retries == res.report.reroutes == 0


@given(workloads(), st.integers(min_value=0, max_value=2**20),
       st.sampled_from([0.5, 1.0, 2.0]))
@settings(max_examples=15, deadline=None)
def test_repairable_plan_commits_all_with_silent_sanitizer(wl, fseed, inten):
    net = wl.instance.network
    plan = random_fault_plan(
        net, horizon=run_resilient(wl).makespan, rng=root_rng(fseed),
        intensity=inten, objects=wl.instance.objects,
    )
    san = InvariantSanitizer()
    res = run_resilient(wl, plan, sanitizer=san)
    assert res.report.committed == wl.m
    for tid, ct in res.commits.items():
        assert ct >= wl.release_of(tid)
    assert san.violations == []
