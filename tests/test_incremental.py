"""Unit tests for the incremental engine and the session API."""

from unittest import mock

import numpy as np
import pytest

from repro.core import incremental
from repro.core.dependency import DependencyGraph
from repro.core.dispatch import schedule
from repro.core.greedy import GreedyScheduler
from repro.core.incremental import (
    GREEDY_FAMILY,
    DistanceMemo,
    IncrementalConflictGraph,
    SchedulerSession,
    open_session,
)
from repro.core.instance import Instance
from repro.core.transaction import Transaction
from repro.errors import SchedulingError, SessionError
from repro.network import clique, grid, hypercube, line, torus
from repro.obs import MemoryRecorder
from repro.workloads import random_k_subsets


def _txn(tid, node, objs):
    return Transaction(tid, node, objs)


#: a six-node network per session engine: the clique's scheduler is in
#: the greedy family, the line's is not
_SIX_NODES = {"incremental": lambda: clique(6), "batch": lambda: line(6)}


def _homes(n_objects, net, seed=0):
    rng = np.random.default_rng(seed)
    return {
        o: int(v)
        for o, v in enumerate(rng.integers(0, net.n, size=n_objects))
    }


class TestDistanceMemo:
    def test_dist_memoizes_symmetrically(self):
        net = grid(4)
        memo = DistanceMemo(net)
        (d1,) = memo.pair_distances([0], [5])
        (d2,) = memo.pair_distances([5], [0])
        assert d1 == d2 == int(net.dist(0, 5))
        assert memo.misses == 1
        assert memo.hits == 1

    def test_pair_distances_batches_misses(self):
        net = grid(4)
        memo = DistanceMemo(net)
        us = [0, 1, 2, 0]
        vs = [5, 6, 7, 5]
        ds = memo.pair_distances(us, vs)
        assert ds == [int(net.dist(u, v)) for u, v in zip(us, vs)]
        # dedup is across calls via the cache, not within a batch
        assert memo.misses == 4
        again = memo.pair_distances(us, vs)
        assert again == ds
        assert memo.misses == 4
        assert memo.hits == 4

    def test_stats_shape(self):
        memo = DistanceMemo(grid(3))
        memo.pair_distances([0], [1])
        assert memo.stats() == {"hits": 0, "misses": 1, "size": 1}


class TestIncrementalConflictGraph:
    def _build(self, net, txns):
        g = IncrementalConflictGraph(net)
        for t in txns:
            g.add(t)
        return g

    def test_matches_batch_dependency_graph(self):
        rng = np.random.default_rng(3)
        inst = random_k_subsets(clique(10), w=12, k=3, rng=rng)
        g = self._build(inst.network, inst.transactions)
        ref = DependencyGraph.build(inst)
        assert g.h_max == ref.h_max
        assert g.max_degree == ref.max_degree
        assert g.weighted_degree == ref.weighted_degree

    def test_refcounts_consistent_under_churn(self):
        rng = np.random.default_rng(4)
        net = clique(16)
        g = IncrementalConflictGraph(net)
        live = {}
        tid = 0
        for _ in range(120):
            if live and rng.random() < 0.45:
                victim = int(rng.choice(sorted(live)))
                g.remove(victim)
                del live[victim]
            else:
                free = sorted(set(range(net.n)) - {t.node for t in live.values()})
                if not free:
                    continue
                t = _txn(tid, int(rng.choice(free)),
                         rng.choice(8, size=2, replace=False))
                g.add(t)
                live[tid] = t
                tid += 1
            # refcount mirrors must equal a from-scratch rescan
            assert g.colors_used == len(set(g._slot.values()))
            assert g.max_degree == max(
                (len(n) for n in g._adj.values()), default=0
            )
            expected_h = max(
                (w for row in g._adj.values() for w in row.values()),
                default=0,
            )
            assert g.h_max == max(expected_h, 1)

    def test_slots_equal_batch_coloring_after_every_delta(self):
        rng = np.random.default_rng(5)
        net = clique(12)
        g = IncrementalConflictGraph(net)
        txns = [
            _txn(i, i, rng.choice(6, size=2, replace=False))
            for i in range(12)
        ]
        for t in txns:
            g.add(t)
        for victim in (0, 3, 7):
            g.remove(victim)
            live = [t for t in txns if t.tid in g]
            # recompute the batch fixpoint by hand: ascending-tid mex
            slots = {}
            for t in live:
                used = {
                    slots[u.tid]
                    for u in live
                    if u.tid < t.tid and u.tid in g._adj[t.tid]
                }
                j = 0
                while j in used:
                    j += 1
                slots[t.tid] = j
            assert {tid: g._slot[tid] for tid in slots} == slots

    def test_cascading_recolor(self):
        # a chain of conflicts: removing the head must ripple through
        net = line(8)
        g = IncrementalConflictGraph(net)
        for i in range(6):
            # consecutive txns share an object -> path conflict graph
            g.add(_txn(i, i, [i, i + 1]))
        before = dict(g._slot)
        assert before[0] == 0
        examined, changed, rebuilt = g.remove(0)
        assert not rebuilt
        assert changed >= 1  # tid 1 drops to slot 0, cascade follows
        assert g._slot[1] == 0

    @staticmethod
    def _remove_clique_head():
        # txns 0..19 share object 0 (a clique in the conflict graph) and
        # txns 20..59 one object each: removing tid 0 re-slots 19 of the
        # 59 live vertices, more than _MIN_FRONTIER, less than half
        g = IncrementalConflictGraph(clique(64))
        for i in range(60):
            g.add(_txn(i, i, [0] if i < 20 else [i]))
        # ascending-tid inserts have no larger-tid neighbour to repair
        assert g.full_rebuilds == 0
        _, _, rebuilt = g.remove(0)
        # either way the coloring is still the batch fixpoint
        clique_part = [t for t in sorted(g._txn) if t < 20]
        assert [g._slot[t] for t in clique_part] == list(range(19))
        return g, rebuilt

    def test_full_rebuild_fallback_triggers(self):
        g, rebuilt = self._remove_clique_head()
        assert not rebuilt
        assert g.full_rebuilds == 0
        with mock.patch.object(incremental, "_REBUILD_THRESHOLD", 0.001):
            g, rebuilt = self._remove_clique_head()
        assert rebuilt
        assert g.full_rebuilds == 1

    def test_h_max_shrinks_when_heaviest_edge_leaves(self):
        net = line(10)
        g = IncrementalConflictGraph(net)
        g.add(_txn(0, 0, [7]))
        g.add(_txn(1, 9, [7]))  # weight 9 edge
        g.add(_txn(2, 1, [8]))
        g.add(_txn(3, 2, [8]))  # weight 1 edge
        assert g.h_max == 9
        g.remove(1)
        assert g.h_max == 1



class TestSessionLifecycle:
    def test_greedy_family_defaults_to_incremental(self):
        for net, algo in (
            (clique(6), "clique"),
            (hypercube(3), "diameter"),
            (torus(3, 3), "diameter"),
        ):
            sess = SchedulerSession(net, object_homes=_homes(8, net))
            assert sess.mode == "incremental"
            assert sess.algo == algo
            assert sess.algo in GREEDY_FAMILY
            sess.close()

    def test_explicit_greedy_algo_on_any_topology_is_incremental(self):
        sess = SchedulerSession(grid(4), algo="greedy")
        assert (sess.mode, sess.algo) == ("incremental", "greedy")

    def test_non_greedy_topology_falls_back_to_batch(self):
        net = grid(4)
        sess = SchedulerSession(net, object_homes=_homes(8, net))
        assert sess.mode == "batch"
        assert sess.algo == "grid"
        sess.close()

    def test_mode_is_a_read_only_report(self):
        sess = SchedulerSession(clique(6))
        with pytest.raises(AttributeError):
            sess.mode = "batch"

    def test_unknown_mode_and_home_policy_rejected(self):
        # the engine follows the algo; no mode keyword selects it
        net = clique(6)
        with pytest.raises(TypeError, match="mode"):
            SchedulerSession(net, mode="sideways")
        with pytest.raises(SessionError, match="home_policy"):
            SchedulerSession(net, home_policy="wander")

    def test_unknown_algo_rejected_at_open(self):
        for algo in ("incremental", "nope"):
            with pytest.raises(SchedulingError, match="unknown scheduler"):
                SchedulerSession(clique(6), algo=algo)

    def test_closed_session_rejects_everything(self):
        net = clique(6)
        sess = open_session(net, object_homes=_homes(8, net))
        sess.submit(_txn(0, 0, [0]))
        sess.close()
        assert sess.closed
        with pytest.raises(SessionError, match="closed"):
            sess.submit(_txn(1, 1, [0]))
        with pytest.raises(SessionError, match="closed"):
            sess.commit([0])
        with pytest.raises(SessionError, match="closed"):
            sess.current_schedule()

    def test_context_manager_closes(self):
        net = clique(6)
        with open_session(net, object_homes=_homes(8, net)) as sess:
            pass
        assert sess.closed


class TestSubmitValidation:
    def _session(self):
        net = clique(8)
        return SchedulerSession(net, object_homes={0: 0, 1: 3})

    def test_duplicate_live_tid(self):
        sess = self._session()
        sess.submit(_txn(0, 0, [0]))
        with pytest.raises(SessionError, match="already live"):
            sess.submit(_txn(0, 1, [0]))

    def test_intra_batch_duplicate_tid(self):
        sess = self._session()
        with pytest.raises(SessionError, match="already live"):
            sess.submit([_txn(0, 0, [0]), _txn(0, 1, [0])])

    def test_node_out_of_range(self):
        sess = self._session()
        with pytest.raises(SessionError, match="node"):
            sess.submit(_txn(0, 99, [0]))

    def test_node_collision_with_live(self):
        sess = self._session()
        sess.submit(_txn(0, 2, [0]))
        with pytest.raises(SessionError, match="one per node"):
            sess.submit(_txn(1, 2, [1]))

    def test_intra_batch_node_collision(self):
        sess = self._session()
        with pytest.raises(SessionError, match="one per node"):
            sess.submit([_txn(0, 2, [0]), _txn(1, 2, [1])])

    def test_unhomed_object(self):
        sess = self._session()
        with pytest.raises(SessionError, match="unhomed"):
            sess.submit(_txn(0, 0, [7]))

    def test_failed_batch_leaves_session_untouched(self):
        sess = self._session()
        sess.submit(_txn(0, 0, [0]))
        with pytest.raises(SessionError):
            sess.submit([_txn(1, 1, [0]), _txn(2, 99, [1])])
        assert sess.active_ids() == [0]

    def test_commit_and_abort_require_live_tids(self):
        sess = self._session()
        sess.submit(_txn(0, 0, [0]))
        with pytest.raises(SessionError, match="not a live"):
            sess.commit([5])
        with pytest.raises(SessionError, match="not a live"):
            sess.abort([5])

    def test_empty_session_has_no_schedule(self):
        sess = self._session()
        with pytest.raises(SessionError, match="no schedule"):
            sess.current_schedule()

    @pytest.mark.parametrize("mode", ["incremental", "batch"])
    @pytest.mark.parametrize("home", [-1, 6, 99])
    def test_home_outside_network_rejected_at_open(self, mode, home):
        # -1 would index node 5's distances, 99 numpy's IndexError
        with pytest.raises(
            SessionError, match=rf"object 1 homed at node {home}, .* 0\.\.5"
        ):
            SchedulerSession(
                _SIX_NODES[mode](), object_homes={0: 0, 1: home}
            )

    @pytest.mark.parametrize("mode", ["incremental", "batch"])
    def test_boundary_homes_accepted(self, mode):
        net = _SIX_NODES[mode]()
        homes = {0: 0, 1: 5}
        txns = [_txn(0, 1, [0]), _txn(1, 2, [1])]
        sess = SchedulerSession(net, object_homes=homes)
        assert sess.mode == mode
        sess.submit(txns)
        want = schedule(Instance(net, txns, homes)).commit_times
        assert sess.commit() == want


class TestSessionSemantics:
    def test_commit_times_match_schedule_read(self):
        net = clique(10)
        rng = np.random.default_rng(8)
        homes = _homes(6, net)
        sess = open_session(net, object_homes=homes)
        txns = [
            _txn(i, i, rng.choice(6, size=2, replace=False)) for i in range(8)
        ]
        sess.submit(txns)
        sched = sess.current_schedule()
        times = sess.commit([0, 1, 2])
        assert times == {t: sched.commit_times[t] for t in (0, 1, 2)}

    def test_commit_all_matches_batch_schedule(self):
        net = clique(12)
        rng = np.random.default_rng(9)
        inst = random_k_subsets(net, w=10, k=2, rng=rng)
        sess = open_session(net, object_homes=dict(inst.object_homes))
        sess.submit(inst.transactions)
        times = sess.commit()
        assert times == GreedyScheduler().schedule(inst).commit_times
        assert sess.active_count == 0

    def test_follow_home_policy_moves_objects(self):
        net = line(6)
        sess = open_session(
            net, algo="greedy", object_homes={0: 0}, home_policy="follow"
        )
        sess.submit([_txn(0, 2, [0]), _txn(1, 5, [0])])
        times = sess.commit()
        last = max(times, key=lambda t: (times[t], t))
        mover = {0: 2, 1: 5}[last]
        assert sess.homes()[0] == mover

    def test_static_home_policy_keeps_homes(self):
        net = line(6)
        sess = open_session(net, algo="greedy", object_homes={0: 0})
        sess.submit([_txn(0, 2, [0]), _txn(1, 5, [0])])
        sess.commit()
        assert sess.homes()[0] == 0

    def test_snapshot_is_json_safe_and_complete(self):
        import json

        net = clique(8)
        sess = open_session(net, object_homes=_homes(4, net))
        sess.submit([_txn(0, 0, [0, 1]), _txn(1, 1, [2])])
        sess.commit([0])
        snap = sess.snapshot()
        json.dumps(snap)  # must not raise
        assert snap["mode"] == "incremental"
        assert snap["epoch"] == 1
        assert [t["tid"] for t in snap["active"]] == [1]
        assert snap["stats"]["submitted"] == 2
        assert snap["stats"]["committed"] == 1

    def test_stats_counters(self):
        net = clique(8)
        sess = open_session(net, object_homes=_homes(4, net))
        sess.submit([_txn(i, i, [i % 4]) for i in range(4)])
        sess.commit([0, 1])
        sess.abort([2])
        s = sess.stats
        assert s["submitted"] == 4
        assert s["committed"] == 2
        assert s["aborted"] == 1
        assert s["active"] == 1
        assert "memo_hits" in s and "full_rebuilds" in s

    def test_session_delta_events_recorded(self):
        net = clique(8)
        rec = MemoryRecorder()
        sess = open_session(net, object_homes=_homes(4, net), recorder=rec)
        sess.submit([_txn(0, 0, [0]), _txn(1, 1, [0])])
        sess.commit([0])
        sess.abort([1])
        kinds = [e.kind for e in rec.trace().events]
        assert kinds == ["session_delta", "session_delta", "session_delta"]
        ops = [e.op for e in rec.trace().events]
        assert ops == ["submit", "commit", "abort"]
        counts = rec.trace().metrics["counters"]
        assert counts["session.submitted"] == 2
        assert counts["session.committed"] == 1
        assert counts["session.aborted"] == 1

    def test_batch_fallback_matches_facade(self):
        import repro

        net = grid(4)
        rng = np.random.default_rng(10)
        inst = random_k_subsets(net, w=8, k=2, rng=rng)
        sess = open_session(
            net, object_homes=dict(inst.object_homes),
            rng=np.random.default_rng(0),
        )
        assert sess.mode == "batch"
        sess.submit(inst.transactions)
        s = sess.current_schedule()
        ref = repro.schedule(inst, rng=np.random.default_rng(0))
        assert s.commit_times == ref.commit_times
        assert s.makespan == ref.makespan


class TestIncrementalScheduler:
    """Schedules read from the incremental engine name their algo."""

    def test_one_shot_matches_greedy(self):
        rng = np.random.default_rng(11)
        inst = random_k_subsets(clique(10), w=8, k=2, rng=rng)
        sess = open_session(
            inst.network, algo="greedy", object_homes=dict(inst.object_homes)
        )
        sess.submit(inst.transactions)
        inc = sess.current_schedule()
        ref = GreedyScheduler().schedule(inst)
        assert inc.commit_times == ref.commit_times
        assert inc.meta["scheduler"] == "greedy"
        assert inc.meta["engine"] == "incremental"
        inc.validate()

    def test_base_variants(self):
        rng = np.random.default_rng(12)
        inst = random_k_subsets(clique(10), w=8, k=2, rng=rng)
        for base in ("clique", "diameter"):
            sess = open_session(
                inst.network, algo=base, object_homes=dict(inst.object_homes)
            )
            sess.submit(inst.transactions)
            s = sess.current_schedule()
            assert s.meta["scheduler"] == base
            assert s.meta["engine"] == "incremental"
            s.validate()

    def test_certify_accepts_incremental_schedules(self):
        from repro.staticcheck import certify_schedule

        rng = np.random.default_rng(13)
        inst = random_k_subsets(grid(4), w=10, k=2, rng=rng)
        sess = open_session(
            inst.network, algo="greedy", object_homes=dict(inst.object_homes)
        )
        sess.submit(inst.transactions)
        cert = certify_schedule(sess.current_schedule())
        tb = [c for c in cert.checks if c.name == "theorem_bound"][0]
        assert tb.passed
        assert "Gamma" in tb.detail
