"""Unit tests for the grid scheduler (§5, Theorem 3)."""

import numpy as np
import pytest

from test_kernels import _random_homed

from repro.core import GreedyScheduler, GridScheduler, Instance, Transaction
from repro.core.phasing import PhaseState, run_phase
from repro.errors import TopologyError
from repro.network import clique, grid, grid_node
from repro.sim import execute
from repro.workloads import random_k_subsets


class TestSubgridSide:
    def test_explicit_side_wins(self):
        rng = np.random.default_rng(0)
        inst = random_k_subsets(grid(8), w=8, k=2, rng=rng)
        assert GridScheduler(side=3).subgrid_side(inst) == 3

    def test_theory_side_clamped_to_grid(self):
        rng = np.random.default_rng(1)
        inst = random_k_subsets(grid(6), w=12, k=1, rng=rng)
        side = GridScheduler().subgrid_side(inst)
        assert 1 <= side <= 6

    def test_smaller_xi_factor_smaller_side(self):
        rng = np.random.default_rng(2)
        inst = random_k_subsets(grid(16), w=16, k=2, rng=rng)
        s_small = GridScheduler(xi_factor=0.5).subgrid_side(inst)
        s_big = GridScheduler(xi_factor=27.0).subgrid_side(inst)
        assert s_small <= s_big


class TestGridScheduler:
    def test_requires_grid_topology(self):
        rng = np.random.default_rng(0)
        inst = random_k_subsets(clique(9), w=4, k=2, rng=rng)
        with pytest.raises(TopologyError):
            GridScheduler().schedule(inst)

    @pytest.mark.parametrize("side", [1, 2, 3, 5, 8])
    def test_feasible_for_any_subgrid_side(self, side):
        rng = np.random.default_rng(side)
        inst = random_k_subsets(grid(8), w=8, k=2, rng=rng)
        s = GridScheduler(side=side).schedule(inst)
        s.validate()
        execute(s)

    def test_feasible_on_rectangular_grid(self):
        rng = np.random.default_rng(3)
        inst = random_k_subsets(grid(4, 10), w=6, k=2, rng=rng)
        s = GridScheduler(side=3).schedule(inst)
        s.validate()

    def test_single_subgrid_degenerates_to_greedy_shape(self):
        # one subgrid (the theory side, or any side >= the grid's) is
        # plain greedy on the instance: the same commits and meta as the
        # one-phase composition it replaces, unused homed objects included
        for seed in range(8):
            rng = np.random.default_rng(seed)
            insts = [
                random_k_subsets(grid(5), w=6, k=2, rng=rng),
                _random_homed(grid(5), rng, w=8, k=2, unused=2),
                _random_homed(grid(3, 5), rng, w=6, k=3, unused=1),
            ]
            for inst in insts:
                rows = inst.network.topology.require("rows")
                cols = inst.network.topology.require("cols")
                for side in (None, max(rows, cols), max(rows, cols) + 3):
                    scheduler = GridScheduler(side=side)
                    chosen = scheduler.subgrid_side(inst)
                    assert chosen >= max(rows, cols)
                    s = scheduler.schedule(inst)
                    state = PhaseState(inst)
                    phase = run_phase(
                        state, [t.tid for t in inst.transactions],
                        GreedyScheduler(),
                    )
                    ref = state.finish({
                        "scheduler": "grid",
                        "side": chosen,
                        "subgrids": 1,
                        "subgrids_executed": 1,
                        "max_internal_span": phase.makespan,
                    })
                    assert s.commit_times == ref.commit_times
                    assert list(s.commit_times) == list(ref.commit_times)
                    assert s.meta == ref.meta
                    assert s.instance is inst
                    s.validate()

    def test_subgrids_execute_sequentially(self):
        # with a forced 2x2 side on a 4x4 grid, the four subgrids' commit
        # windows must not interleave (strict boustrophedon order)
        rng = np.random.default_rng(5)
        inst = random_k_subsets(grid(4), w=4, k=2, rng=rng)
        s = GridScheduler(side=2).schedule(inst)
        s.validate()
        windows = {}
        for t in inst.transactions:
            r, c = divmod(t.node, 4)
            key = (r // 2, c // 2)
            ct = s.time_of(t.tid)
            lo, hi = windows.get(key, (ct, ct))
            windows[key] = (min(lo, ct), max(hi, ct))
        order = [(0, 0), (1, 0), (1, 1), (0, 1)]  # boustrophedon for 2x2
        for a, b in zip(order, order[1:]):
            if a in windows and b in windows:
                assert windows[a][1] < windows[b][0]

    def test_boustrophedon_order_three_columns(self):
        # column 0 top->bottom, column 1 bottom->top, column 2 top->bottom
        rng = np.random.default_rng(6)
        inst = random_k_subsets(grid(6), w=4, k=2, rng=rng)
        s = GridScheduler(side=2).schedule(inst)
        first_commit = {}
        for t in inst.transactions:
            r, c = divmod(t.node, 6)
            key = (r // 2, c // 2)
            first_commit[key] = min(
                first_commit.get(key, 10**9), s.time_of(t.tid)
            )
        expected = [
            (0, 0), (1, 0), (2, 0),
            (2, 1), (1, 1), (0, 1),
            (0, 2), (1, 2), (2, 2),
        ]
        times = [first_commit[k] for k in expected if k in first_commit]
        assert times == sorted(times)

    def test_hand_built_instance_exact_behaviour(self):
        # two transactions in opposite corners sharing one object
        net = grid(4)
        txns = [
            Transaction(0, grid_node(0, 0, 4), {0}),
            Transaction(1, grid_node(3, 3, 4), {0}),
        ]
        inst = Instance(net, txns, {0: grid_node(0, 0, 4)})
        s = GridScheduler(side=2).schedule(inst)
        s.validate()
        # the object must cross distance 6 between the two commits
        assert s.time_of(1) - s.time_of(0) >= 6

    def test_theorem_ratio_shape(self):
        rng = np.random.default_rng(7)
        inst = random_k_subsets(grid(8), w=8, k=2, rng=rng)
        assert GridScheduler.theorem_ratio(inst) > 0


class TestGridBoundaryCases:
    def test_single_row_grid(self):
        rng = np.random.default_rng(10)
        inst = random_k_subsets(grid(1, 12), w=4, k=2, rng=rng)
        s = GridScheduler(side=3).schedule(inst)
        s.validate()
        execute(s)

    def test_single_column_grid(self):
        rng = np.random.default_rng(11)
        inst = random_k_subsets(grid(12, 1), w=4, k=2, rng=rng)
        s = GridScheduler(side=4).schedule(inst)
        s.validate()

    def test_partial_subgrids_on_rectangular(self):
        # 5x7 grid with side 3 leaves ragged 2x1-ish partial subgrids
        rng = np.random.default_rng(12)
        inst = random_k_subsets(grid(5, 7), w=5, k=2, rng=rng)
        s = GridScheduler(side=3).schedule(inst)
        s.validate()
        execute(s)

    def test_one_by_one_grid(self):
        net = grid(1, 1)
        inst = Instance(net, [Transaction(0, 0, {0})], {0: 0})
        s = GridScheduler().schedule(inst)
        assert s.makespan == 1

    def test_sparse_transactions(self):
        # only a few nodes host transactions (m < n)
        rng = np.random.default_rng(13)
        inst = random_k_subsets(grid(8), w=6, k=2, rng=rng, density=0.3)
        s = GridScheduler(side=4).schedule(inst)
        s.validate()
        execute(s)
