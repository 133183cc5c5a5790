"""Unit tests for the runtime invariant sanitizer (repro.sim.sanitizer)."""

import pytest

from repro.core import Transaction
from repro.errors import InvariantViolationError
from repro.faults import FaultPlan, LinkFailure
from repro.network import grid
from repro.online import poisson_workload, run_resilient
from repro.sim import InvariantSanitizer
from repro.workloads import root_rng


def txn(tid=0, node=1, objects=(0,)):
    return Transaction(tid, node, set(objects))


class TestSingleCopy:
    def test_in_flight_object_without_position_fails(self):
        san = InvariantSanitizer()
        with pytest.raises(InvariantViolationError, match="exactly one copy"):
            san.check_step(3, {0: 1}, moving={0, 5}, pending={})

    def test_object_at_nonexistent_node_fails(self):
        san = InvariantSanitizer()
        with pytest.raises(InvariantViolationError, match="nonexistent"):
            san.check_step(3, {0: 99}, moving=set(), pending={}, n=16)

    def test_pending_txn_needing_vanished_object_fails(self):
        san = InvariantSanitizer()
        with pytest.raises(InvariantViolationError, match="no copy"):
            san.check_step(3, {0: 1}, moving=set(), pending={7: txn(7, 1, {0, 4})})

    def test_consistent_state_passes(self):
        san = InvariantSanitizer()
        san.check_step(3, {0: 1, 1: 2}, moving={1}, pending={0: txn()}, n=4)
        assert san.checks == 1
        assert san.violations == []


class TestCommitInvariants:
    def test_commit_before_release_fails(self):
        san = InvariantSanitizer()
        with pytest.raises(InvariantViolationError, match="before its release"):
            san.check_commit(2, txn(), {0: 1}, moving=set(), release={0: 5})

    def test_commit_with_object_in_flight_fails(self):
        san = InvariantSanitizer()
        with pytest.raises(InvariantViolationError, match="in flight"):
            san.check_commit(9, txn(), {0: 1}, moving={0}, release={0: 1})

    def test_commit_with_object_elsewhere_fails(self):
        san = InvariantSanitizer()
        with pytest.raises(InvariantViolationError, match="sits at"):
            san.check_commit(9, txn(node=1), {0: 3}, moving=set(),
                             release={0: 1})

    def test_valid_commit_passes(self):
        san = InvariantSanitizer()
        san.check_commit(9, txn(node=1), {0: 1}, moving=set(), release={0: 1})
        assert san.violations == []


class TestHopAndDispatch:
    def test_hop_on_down_link_fails(self):
        san = InvariantSanitizer()
        plan = FaultPlan([LinkFailure(1, 2, 0, 10)])
        with pytest.raises(InvariantViolationError, match="down link"):
            san.check_hop(5, 1, 2, plan)
        san2 = InvariantSanitizer()
        san2.check_hop(10, 1, 2, plan)  # repaired: fine
        assert san2.violations == []

    def test_dispatch_past_higher_priority_waiter_fails(self):
        san = InvariantSanitizer()
        pending = {0: txn(0, 1), 1: txn(1, 2)}
        prio = {0: (0, 0), 1: (5, 1)}
        with pytest.raises(InvariantViolationError, match="monotonicity"):
            san.check_dispatch(4, 0, pending[1], pending, prio)

    def test_dispatch_without_any_requester_fails(self):
        san = InvariantSanitizer()
        with pytest.raises(InvariantViolationError, match="no pending"):
            san.check_dispatch(4, 0, txn(0, 1), {}, {0: (0, 0)})

    def test_dispatch_to_best_passes(self):
        san = InvariantSanitizer()
        pending = {0: txn(0, 1), 1: txn(1, 2)}
        prio = {0: (0, 0), 1: (5, 1)}
        san.check_dispatch(4, 0, pending[0], pending, prio)
        assert san.violations == []


class TestModes:
    def test_collecting_mode_records_instead_of_raising(self):
        san = InvariantSanitizer(raise_on_violation=False)
        san.check_step(3, {0: 1}, moving={0, 5}, pending={})
        san.check_commit(2, txn(), {0: 1}, moving=set(), release={0: 5})
        assert len(san.violations) == 2
        assert all(isinstance(v, str) for v in san.violations)


class TestRuntimeWiring:
    def test_sanitized_run_resilient_matches_unsanitized(self):
        wl = poisson_workload(grid(4), w=5, k=2, rate=1.0, count=12,
                              rng=root_rng(4))
        sanitized = run_resilient(wl, sanitizer=InvariantSanitizer())
        plain = run_resilient(wl)
        assert sanitized.commits == plain.commits
        assert sanitized.report.sanitizer_checks > 0

    def test_run_resilient_reports_checks(self):
        wl = poisson_workload(grid(4), w=5, k=2, rate=1.0, count=12,
                              rng=root_rng(5))
        san = InvariantSanitizer()
        res = run_resilient(wl, sanitizer=san)
        assert res.report.committed == wl.m
        assert res.report.sanitizer_checks == san.checks > 0
        assert res.report.violations == 0
