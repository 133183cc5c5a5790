"""Property tests: sessions are a faithful rolling view of the batch path.

The redesigned session API promises that after ANY interleaving of
submit/commit/abort deltas, ``current_schedule()`` equals what the batch
scheduler would produce on a fresh :class:`Instance` built from the live
window -- field by field (commit times plus the five reported meta
fields).  These tests drive random interleavings per topology family:

* greedy family (clique) -- the incremental engine's repair fixpoint must
  match ``GreedyScheduler`` exactly, including under ``follow`` homes and
  aggressive full-rebuild thresholds;
* grid/line -- the batch-fallback sessions must match their deterministic
  topology schedulers;
* star/cluster -- rng-consuming schedulers, checked one read per session
  with the generator reseeded on both sides.

Plus directed repair-frontier edge cases: committing the lowest tid of a
conflict chain (maximal cascade) and a threshold so small every delta
takes the full-recolor fallback.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import incremental
from repro.core.dispatch import resolve_scheduler
from repro.core.greedy import GreedyScheduler
from repro.core.incremental import open_session
from repro.core.instance import Instance
from repro.core.transaction import Transaction
from repro.network import clique, cluster, grid, line, star

_META_FIELDS = ("colors_used", "h_max", "delta", "gamma", "offset")


def _homes_for(net, rng, n_objects):
    return {
        o: int(v)
        for o, v in enumerate(rng.integers(0, net.n, size=n_objects))
    }


def _live_instance(sess):
    """A fresh, fully validated Instance over the session's live window."""
    txns = [
        Transaction(rec["tid"], rec["node"], rec["objects"])
        for rec in sess.snapshot()["active"]
    ]
    used = sorted({o for t in txns for o in t.objects})
    homes = sess.homes()
    return Instance(sess.network, txns, {o: homes[o] for o in used})


def _assert_matches_batch(sess, scheduler):
    """current_schedule() == the batch scheduler on the live window."""
    inst = _live_instance(sess)
    got = sess.current_schedule()
    want = scheduler.schedule(inst)
    assert got.commit_times == want.commit_times
    assert got.makespan == want.makespan
    # topology schedulers report a subset of the greedy meta fields;
    # greedy/diameter references carry all five, so the incremental
    # engine is held to the full field-by-field contract
    for field in _META_FIELDS:
        if field in want.meta:
            assert got.meta[field] == want.meta[field], field
    got.validate()


def _replay(sess, ops, rng, n_objects, check=None):
    """Drive an op program against a session, checking after every step.

    ``ops`` is a list of ("submit" | "commit" | "abort") labels; the rng
    fills in batch sizes, nodes, and object sets deterministically.
    Nodes are drawn from the free set so the one-txn-per-node invariant
    holds by construction.
    """
    next_tid = sess.active_count
    for op in ops:
        live = sess.active_ids()
        if op == "submit":
            taken = {sess.snapshot()["active"][i]["node"] for i in range(len(live))}
            free = [v for v in range(sess.network.n) if v not in taken]
            if not free:
                continue
            count = min(len(free), int(rng.integers(1, 4)))
            nodes = rng.choice(len(free), size=count, replace=False)
            batch = []
            for off in nodes:
                k = int(rng.integers(1, 3))
                objs = rng.choice(n_objects, size=k, replace=False)
                batch.append(Transaction(next_tid, free[int(off)], objs))
                next_tid += 1
            sess.submit(batch)
        elif live:
            count = int(rng.integers(1, len(live) + 1))
            picked = [live[int(i)] for i in rng.choice(len(live), size=count, replace=False)]
            if op == "commit":
                sess.commit(picked)
            else:
                sess.abort(picked)
        if check is not None and sess.active_count:
            check(sess)
    return next_tid


_OP = st.sampled_from(["submit", "submit", "commit", "abort"])
_PROGRAMS = st.lists(_OP, min_size=4, max_size=12)
_SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


class TestGreedyFamilyParity:
    """Incremental repair == batch greedy, any interleaving."""

    @given(seed=_SEEDS, ops=_PROGRAMS)
    @settings(max_examples=25, deadline=None)
    def test_incremental_matches_batch_greedy(self, seed, ops):
        net = clique(10)
        rng = np.random.default_rng(seed)
        sess = open_session(
            net, algo="greedy", object_homes=_homes_for(net, rng, 8)
        )
        assert sess.mode == "incremental"
        ref = GreedyScheduler()
        _replay(sess, ops, rng, 8, check=lambda s: _assert_matches_batch(s, ref))

    @given(seed=_SEEDS, ops=_PROGRAMS)
    @settings(max_examples=15, deadline=None)
    def test_follow_homes_stay_in_lockstep(self, seed, ops):
        """Under the follow policy the batch view uses the moved homes."""
        net = clique(8)
        rng = np.random.default_rng(seed)
        sess = open_session(
            net,
            algo="greedy",
            object_homes=_homes_for(net, rng, 6),
            home_policy="follow",
        )
        ref = GreedyScheduler()
        _replay(sess, ops, rng, 6, check=lambda s: _assert_matches_batch(s, ref))

    @given(seed=_SEEDS, ops=_PROGRAMS)
    @settings(max_examples=15, deadline=None)
    def test_full_rebuild_fallback_preserves_parity(self, seed, ops):
        """A tiny threshold forces the recolor-all path; parity must hold."""
        net = clique(8)
        rng = np.random.default_rng(seed)
        ref = GreedyScheduler()
        # with no frontier floor, a tiny threshold sends every repair
        # that examines a vertex to the full recolor
        with mock.patch.object(incremental, "_REBUILD_THRESHOLD", 0.001), \
                mock.patch.object(incremental, "_MIN_FRONTIER", 0):
            sess = open_session(
                net, algo="greedy", object_homes=_homes_for(net, rng, 4)
            )
            # a conflicting pair whose head commits: one repair, rebuilt
            sess.submit([Transaction(0, 0, [0]), Transaction(1, 1, [0])])
            sess.commit([0])
            _assert_matches_batch(sess, ref)
            sess.commit()
            _replay(sess, ops, rng, 4,
                    check=lambda s: _assert_matches_batch(s, ref))
        stats = sess.stats
        assert stats["full_rebuilds"] > 0
        assert stats["full_rebuilds"] == stats["repairs_examined"]


class TestBatchFallbackParity:
    """Non-greedy topologies route reads through the batch scheduler."""

    @given(seed=_SEEDS, ops=_PROGRAMS)
    @settings(max_examples=15, deadline=None)
    def test_grid_session_matches_topology_scheduler(self, seed, ops):
        net = grid(3, 4)
        rng = np.random.default_rng(seed)
        sess = open_session(net, object_homes=_homes_for(net, rng, 8))
        assert sess.mode == "batch"
        ref = resolve_scheduler(topology="grid")
        _replay(sess, ops, rng, 8, check=lambda s: _assert_matches_batch(s, ref))

    @given(seed=_SEEDS, ops=_PROGRAMS)
    @settings(max_examples=15, deadline=None)
    def test_line_session_matches_topology_scheduler(self, seed, ops):
        net = line(9)
        rng = np.random.default_rng(seed)
        sess = open_session(net, object_homes=_homes_for(net, rng, 6))
        ref = resolve_scheduler(topology="line")
        _replay(sess, ops, rng, 6, check=lambda s: _assert_matches_batch(s, ref))

    @given(seed=_SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_star_and_cluster_single_read_parity(self, seed):
        """rng-consuming schedulers: one read, generator reseeded per side."""
        for net in (star(3, 2), cluster(3, 3)):
            rng = np.random.default_rng(seed)
            homes = _homes_for(net, rng, 6)
            sess = open_session(
                net, object_homes=homes, rng=np.random.default_rng(seed)
            )
            nodes = rng.choice(net.n, size=min(4, net.n), replace=False)
            txns = [
                Transaction(i, int(v), rng.choice(6, size=2, replace=False))
                for i, v in enumerate(nodes)
            ]
            sess.submit(txns)
            got = sess.current_schedule()
            ref = resolve_scheduler(topology=net.topology.name)
            want = ref.schedule(_live_instance(sess), np.random.default_rng(seed))
            assert got.commit_times == want.commit_times
            assert got.makespan == want.makespan


class TestRepairFrontierEdgeCases:
    """Directed worst cases for the dirty-neighborhood repair."""

    def _chain_session(self, n=10):
        # txn i conflicts with txn i+1 through shared object i: a path in
        # the conflict graph, so recoloring the head can cascade end to end
        net = clique(n + 1)
        homes = {o: 0 for o in range(n)}
        sess = open_session(net, algo="greedy", object_homes=homes)
        txns = [Transaction(i, i, [j for j in (i - 1, i) if 0 <= j < n - 1] or [0])
                for i in range(n)]
        sess.submit(txns)
        return sess

    def test_committing_chain_head_cascades_and_stays_exact(self):
        sess = self._chain_session()
        before = sess.stats["repairs_examined"]
        sess.commit([0])
        assert sess.stats["repairs_examined"] >= before
        _assert_matches_batch(sess, GreedyScheduler())

    def test_committing_chain_interior_stays_exact(self):
        sess = self._chain_session()
        sess.commit([4, 5])
        _assert_matches_batch(sess, GreedyScheduler())

    def test_abort_then_resubmit_same_node_stays_exact(self):
        sess = self._chain_session(6)
        sess.abort([2])
        sess.submit(Transaction(99, 2, [1, 2]))
        _assert_matches_batch(sess, GreedyScheduler())

    def test_empty_then_refill_resets_cleanly(self):
        net = clique(6)
        sess = open_session(net, algo="greedy", object_homes={0: 0, 1: 1})
        sess.submit([Transaction(0, 0, [0]), Transaction(1, 1, [0, 1])])
        sess.commit()
        assert sess.active_count == 0
        sess.submit([Transaction(2, 3, [1]), Transaction(3, 4, [0, 1])])
        _assert_matches_batch(sess, GreedyScheduler())

    def test_threshold_one_never_falls_back(self):
        # no frontier floor: the threshold alone sets the fallback limit,
        # and a frontier never examines more vertices than are live
        with mock.patch.object(incremental, "_REBUILD_THRESHOLD", 1.0), \
                mock.patch.object(incremental, "_MIN_FRONTIER", 0):
            sess = self._chain_session()
            sess.commit([0])
        assert sess.stats["repairs_examined"] > 0
        assert sess.stats["full_rebuilds"] == 0
        _assert_matches_batch(sess, GreedyScheduler())


class TestDiameterVariantParity:
    @given(seed=_SEEDS, ops=_PROGRAMS)
    @settings(max_examples=10, deadline=None)
    def test_diameter_base_matches_its_batch_scheduler(self, seed, ops):
        net = clique(8)
        rng = np.random.default_rng(seed)
        sess = open_session(
            net, algo="diameter", object_homes=_homes_for(net, rng, 6)
        )
        assert sess.mode == "incremental"
        ref = resolve_scheduler("diameter")
        _replay(sess, ops, rng, 6, check=lambda s: _assert_matches_batch(s, ref))
