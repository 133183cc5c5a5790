"""Property-based tests (hypothesis) for admission and service accounting.

The robustness contract is conservation: nothing the stream releases is
ever silently dropped.  Two layers are exercised under arbitrary drawn
policies:

* high-water shedding inside :func:`run_resilient`: ``committed + lost
  + shed == released`` for any watermark;
* the :class:`repro.service.SchedulingService` loop: ``committed + shed
  + expired + lost + final_backlog == released`` for any drawn window
  length, high-water mark, policy, deadline, and rate -- including runs
  that saturate and flip into shed mode mid-stream, with the report's
  mean and peak backlog those of the queue after each window.

The service settles each window's admissions and commits in slices;
:mod:`service_oracle` keeps the one-at-a-time form, and the two must
agree on the report, the snapshot, the recorded events and any error.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import service_oracle
from repro.errors import OverloadError
from repro.faults.plan import FaultPlan, NodeCrash
from repro.network import clique, grid, line
from repro.obs import MemoryRecorder
from repro.online import poisson_workload, run_resilient
from repro.service import SchedulingService, ServiceConfig
from repro.workloads import PoissonStream, root_rng, spawn

_NETS = {"clique": clique(12), "grid": grid(4), "line": line(9)}


@st.composite
def admission_cases(draw):
    topo = draw(st.sampled_from(sorted(_NETS)))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    count = draw(st.integers(min_value=2, max_value=9))
    high_water = draw(st.integers(min_value=1, max_value=10))
    return topo, seed, count, high_water


@given(admission_cases())
@settings(max_examples=40, deadline=None)
def test_admission_accounting_identity(case):
    topo, seed, count, high_water = case
    net = _NETS[topo]
    wl = poisson_workload(net, w=8, k=2, rate=1.0, count=count,
                          rng=root_rng(seed))
    res = run_resilient(wl, high_water=high_water)
    rep = res.report
    assert rep.committed + len(rep.lost) + len(rep.shed) == rep.released
    assert rep.released == wl.m
    # empty plan: nothing is ever *lost*, only shed
    assert not rep.lost
    # shed transactions never appear among the commits
    shed_tids = {tid for tid, _ in rep.shed}
    assert shed_tids.isdisjoint(res.commits)


@st.composite
def service_cases(draw):
    topo = draw(st.sampled_from(sorted(_NETS)))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rate = draw(st.sampled_from([0.3, 0.8, 2.0]))
    window = draw(st.integers(min_value=2, max_value=12))
    high_water = draw(st.integers(min_value=1, max_value=24))
    policy = draw(st.sampled_from(["defer", "shed"]))
    deadline = draw(st.sampled_from([None, 25, 60]))
    windows = draw(st.integers(min_value=5, max_value=20))
    return topo, seed, rate, window, high_water, policy, deadline, windows


@given(service_cases())
@settings(max_examples=25, deadline=None)
def test_service_accounting_identity(case):
    topo, seed, rate, window, high_water, policy, deadline, windows = case
    net = _NETS[topo]
    stream = PoissonStream(net, w=8, k=2, rate=rate,
                           rng=spawn(seed, "prop", topo))
    cfg = ServiceConfig(window=window, high_water=high_water, admission=policy,
                        deadline=deadline)
    service = SchedulingService(stream, config=cfg)
    queues = []
    for index in range(windows):
        service.run_window(index)
        queues.append(service.queue_length)
    rep = service.report()
    assert rep.accounted
    assert rep.windows == windows
    assert rep.admitted <= rep.released
    assert rep.mean_backlog == sum(queues) / windows
    assert rep.peak_backlog == max(queues)


@st.composite
def oracle_cases(draw):
    topo = draw(st.sampled_from(sorted(_NETS)))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rate = draw(st.sampled_from([0.3, 0.8, 2.0, 4.0]))
    window = draw(st.integers(min_value=2, max_value=10))
    high_water = draw(st.integers(min_value=1, max_value=16))
    admission = draw(st.sampled_from(["defer", "shed", "strict"]))
    deadline = draw(st.sampled_from([None, 6, 25]))
    # a twitchy saturation detector flips the service into shed mode
    saturating = draw(st.booleans())
    # None: the batch engine; a list (maybe empty): the reactive engine,
    # whose node crashes make later releases lost at admission
    crashes = draw(st.one_of(st.none(), st.lists(
        st.tuples(st.integers(min_value=0, max_value=15),
                  st.integers(min_value=1, max_value=40)),
        max_size=3)))
    windows = draw(st.integers(min_value=3, max_value=16))
    recorded = draw(st.booleans())
    return (topo, seed, rate, window, high_water, admission, deadline,
            saturating, crashes, windows, recorded)


def _oracle_stream(case):
    topo, seed, rate = case[:3]
    return PoissonStream(_NETS[topo], w=8, k=2, rate=rate,
                         rng=spawn(seed, "oracle", topo))


def _crash_plan(case):
    topo, crashes = case[0], case[8]
    n = _NETS[topo].n
    return None if crashes is None else FaultPlan(
        [NodeCrash(node % n, time) for node, time in crashes])


def _service_outcome(case):
    """Everything a service run shows: error, report, state, events."""
    (topo, seed, rate, window, high_water, admission, deadline,
     saturating, crashes, windows, recorded) = case
    stream = _oracle_stream(case)
    detector = (
        {"detector_horizon": 2, "slope_threshold": 0.25}
        if saturating else {}
    )
    cfg = ServiceConfig(window=window, high_water=high_water,
                        admission=admission, deadline=deadline, **detector)
    rec = MemoryRecorder() if recorded else None
    service = SchedulingService(stream, config=cfg, plan=_crash_plan(case),
                                rng=np.random.default_rng(seed),
                                recorder=rec)
    try:
        service.run(windows)
        error = None
    except OverloadError as exc:
        error = (type(exc), str(exc))
    return (
        error,
        service.report(),
        service.snapshot_state(),
        None if rec is None else rec.events,
        None if rec is None else rec.registry.snapshot(),
    )


@given(oracle_cases())
# high-water 1 deferring under deadlines; saturation shedding after two
# crashes; strict refusal after a crash loss;
# deferral beside crash losses and expiries; a window with no releases
# leaves a closed gate closed; a batch running past its window into a
# crash on its node
@example(("grid", 5, 4.0, 6, 1, "defer", 25, False, None, 10, True))
@example(("clique", 3, 4.0, 4, 3, "shed", None, True,
          [(2, 5), (7, 12)], 12, True))
@example(("grid", 9, 2.0, 5, 2, "strict", None, False,
          [(0, 3), (5, 4)], 10, True))
@example(("line", 1, 0.8, 8, 4, "defer", 6, False,
          [(3, 2), (5, 20)], 16, False))
@example(("line", 62, 0.3, 10, 4, "shed", None, False, None, 6, True))
@example(("line", 2_147_483_646, 0.3, 2, 1, "defer", None, False,
          [(0, 4)], 3, False))
@settings(max_examples=60, deadline=None)
def test_admission_and_commit_slices_match_the_oracle(case):
    sliced = _service_outcome(case)
    with service_oracle.patched():
        per_entry = _service_outcome(case)
    assert sliced == per_entry
    plan = _crash_plan(case)
    if plan is not None:
        # no commit lands on a node at or after its crash
        window, windows = case[3], case[9]
        node_of = {
            tt.txn.tid: tt.txn.node
            for tt in _oracle_stream(case).window(0, window * windows)
        }
        crashed_at = {ev.node: ev.time for ev in plan.crash_events}
        for tid, time in sliced[2]["commits"].items():
            assert time < crashed_at.get(node_of[int(tid)], time + 1), tid
