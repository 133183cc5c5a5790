"""MaskedNetwork: parity with a full rebuild, and laziness accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError, RecoveryError
from repro.faults.routing import degraded_network
from repro.network import (
    MaskedNetwork,
    clique,
    grid,
    hypercube,
    line,
    masked_csr,
    torus,
)
from repro.network.graph import Network


def _rebuilt(net: Network, down) -> Network:
    down = {(min(u, v), max(u, v)) for u, v in down}
    edges = [(u, v, w) for u, v, w in net.edges()
             if (u, v) not in down]
    return Network(net.n, edges, topology=net.topology)


DOWN_CASES = [
    (lambda: grid(6), [(0, 1)]),
    (lambda: grid(6), [(7, 8), (14, 20)]),
    (lambda: clique(8), [(4, 5), (0, 7)]),
    (lambda: hypercube(4), [(0, 1), (5, 7)]),
    (lambda: torus(4, 5), [(0, 1), (0, 15)]),  # (0, 15) wraps around
]


class TestParityWithRebuild:
    @pytest.mark.parametrize("build,down", DOWN_CASES)
    def test_distance_matrix_matches(self, build, down):
        net = build()
        view = net.masked(down)
        oracle = _rebuilt(net, down)
        assert np.array_equal(view.distance_matrix, oracle.distance_matrix)

    @pytest.mark.parametrize("build,down", DOWN_CASES)
    def test_per_pair_dist_matches(self, build, down):
        net = build()
        view = net.masked(down)
        oracle = _rebuilt(net, down)
        rng = np.random.default_rng(3)
        for _ in range(30):
            u, v = rng.integers(0, net.n, size=2)
            assert view.dist(int(u), int(v)) == oracle.dist(int(u), int(v))

    @pytest.mark.parametrize("build,down", DOWN_CASES)
    def test_batched_pair_distances_match(self, build, down):
        net = build()
        view = net.masked(down)
        oracle = _rebuilt(net, down)
        rng = np.random.default_rng(4)
        us = rng.integers(0, net.n, size=50)
        vs = rng.integers(0, net.n, size=50)
        assert np.array_equal(
            view.pair_distances(us, vs), oracle.pair_distances(us, vs)
        )

    @pytest.mark.parametrize("build,down", DOWN_CASES)
    def test_shortest_paths_avoid_down_edges(self, build, down):
        net = build()
        view = net.masked(down)
        oracle = _rebuilt(net, down)
        downset = {(min(u, v), max(u, v)) for u, v in down}
        rng = np.random.default_rng(5)
        for _ in range(20):
            u, v = (int(x) for x in rng.integers(0, net.n, size=2))
            path = view.shortest_path(u, v)
            assert path[0] == u and path[-1] == v
            hops = list(zip(path, path[1:]))
            assert all((min(a, b), max(a, b)) not in downset for a, b in hops)
            length = sum(view.edge_weight(a, b) for a, b in hops)
            assert length == oracle.dist(u, v)

    def test_structure_surface(self):
        net = grid(5)
        view = net.masked([(0, 1)])
        assert isinstance(view, MaskedNetwork)
        assert view.n == net.n
        assert view.num_edges == net.num_edges - 1
        assert not view.has_edge(0, 1) and not view.has_edge(1, 0)
        assert 1 not in view.neighbors(0)
        assert view.topology.name == net.topology.name


class TestLaziness:
    def test_unaffected_rows_reuse_parent_distances(self):
        net = grid(20)  # 400 nodes
        net.distance_matrix
        net._ensure_pred()
        view = net.masked([(0, 1)])
        for u in range(net.n):
            view.dist(u, (u * 13 + 7) % net.n)
        # only sources whose shortest-path tree used (0, 1) re-solve;
        # on a 400-node grid that is a small corner, not all 400 rows
        assert 0 < view.dijkstra_solves < net.n // 4

    def test_full_matrix_solves_only_stale_rows(self):
        net = grid(12)
        net._ensure_pred()
        view = net.masked([(0, 1)])
        view.distance_matrix
        assert view.dijkstra_solves < net.n


class TestPredecessors:
    @pytest.mark.parametrize("build", [
        lambda: grid(5), lambda: torus(4, 5), lambda: clique(6),
    ])
    def test_predecessors_keep_the_distance_matrix(self, build):
        net = build()
        before = net.distance_matrix
        net._ensure_pred()
        assert net.distance_matrix is before


class TestMaskedCsr:
    def test_zeroes_both_directions(self):
        net = grid(4)
        csr = masked_csr(net, [(0, 1)])
        dense = csr.toarray()
        assert dense[0, 1] == 0 and dense[1, 0] == 0
        assert csr.nnz == net._csr.nnz - 2

    def test_empty_down_returns_cached_csr(self):
        net = grid(4)
        assert masked_csr(net, []) is net._csr


class TestValidation:
    def test_nonexistent_edge_rejected(self):
        with pytest.raises(GraphError, match="no edge"):
            grid(4).masked([(0, 5)])

    def test_disconnection_rejected(self):
        with pytest.raises(GraphError, match="disconnects"):
            line(5).masked([(2, 3)])

    def test_empty_down_returns_self(self):
        net = grid(4)
        assert net.masked([]) is net


class TestDegradedNetwork:
    def test_returns_masked_view(self):
        net = grid(5)
        view = degraded_network(net, frozenset({(0, 1)}))
        assert isinstance(view, MaskedNetwork)

    def test_empty_down_is_identity(self):
        net = grid(5)
        assert degraded_network(net, frozenset()) is net

    def test_disconnection_raises_recovery_error(self):
        with pytest.raises(RecoveryError, match="disconnects the network"):
            degraded_network(line(6), frozenset({(1, 2)}))
