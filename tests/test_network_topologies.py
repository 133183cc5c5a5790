"""Unit tests for the topology builders."""

import math
from unittest import mock

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

from repro.cluster import StreamSpec
from repro.cluster.worker import WorkerSpec
from repro.errors import GraphError
from repro.io.serialize import network_from_dict, network_to_dict
from repro.network import (
    butterfly,
    clique,
    cluster,
    ddim_grid,
    grid,
    grid_coords,
    grid_node,
    hypercube,
    line,
    lower_bound_grid,
    lower_bound_tree,
    network_from_sizes,
    star,
    torus,
)
from repro.network.properties import (
    has_unit_weights,
    is_clique,
    is_grid,
    is_line,
    is_tree,
)
from repro.service import SchedulingService, ServiceConfig
from repro.workloads import PoissonStream, spawn


class TestClique:
    def test_structure(self):
        net = clique(6)
        assert is_clique(net)
        assert net.topology.name == "clique"
        assert net.diameter() == 1

    def test_single_node(self):
        assert clique(1).n == 1

    def test_rejects_zero(self):
        with pytest.raises(GraphError):
            clique(0)


class TestLine:
    def test_structure(self):
        net = line(10)
        assert is_line(net)
        assert net.diameter() == 9
        assert net.dist(2, 7) == 5

    def test_degrees(self):
        net = line(5)
        assert net.degree(0) == 1
        assert net.degree(2) == 2
        assert net.degree(4) == 1


class TestGrid:
    def test_square_structure(self):
        net = grid(4)
        assert is_grid(net, 4, 4)
        assert net.topology.require("rows") == 4
        assert net.diameter() == 6

    def test_rectangular(self):
        net = grid(2, 5)
        assert is_grid(net, 2, 5)
        assert net.n == 10

    def test_coordinate_helpers_invert(self):
        for v in range(12):
            r, c = grid_coords(v, 4)
            assert grid_node(r, c, 4) == v

    def test_manhattan_distances(self):
        net = grid(5)
        assert net.dist(grid_node(0, 0, 5), grid_node(4, 4, 5)) == 8
        assert net.dist(grid_node(1, 2, 5), grid_node(3, 2, 5)) == 2

    def test_corner_and_border_degrees(self):
        net = grid(4)
        assert net.degree(grid_node(0, 0, 4)) == 2
        assert net.degree(grid_node(0, 1, 4)) == 3
        assert net.degree(grid_node(1, 1, 4)) == 4


class TestCluster:
    def test_structure(self):
        net = cluster(3, 4, gamma=6)
        topo = net.topology
        assert net.n == 12
        assert topo.require("gamma") == 6
        clusters = topo.require("clusters")
        assert len(clusters) == 3
        # each cluster is a clique of unit edges
        for members in clusters:
            for a in members:
                for b in members:
                    if a != b:
                        assert net.edge_weight(a, b) == 1

    def test_bridges_complete_with_gamma(self):
        net = cluster(4, 3, gamma=8)
        bridges = net.topology.require("bridges")
        assert len(bridges) == 4
        for i, a in enumerate(bridges):
            for b in bridges[i + 1 :]:
                assert net.edge_weight(a, b) == 8

    def test_default_gamma_is_beta(self):
        assert cluster(2, 5).topology.require("gamma") == 5

    def test_rejects_gamma_below_beta(self):
        with pytest.raises(GraphError, match="gamma >= beta"):
            cluster(2, 5, gamma=3)

    def test_cross_cluster_distance(self):
        net = cluster(2, 4, gamma=7)
        # non-bridge to non-bridge in another cluster: 1 + gamma + 1
        assert net.dist(1, 5) == 9
        assert net.diameter() == 9


class TestHypercube:
    @pytest.mark.parametrize("dim", [0, 1, 2, 3, 4])
    def test_size_and_diameter(self, dim):
        net = hypercube(dim)
        assert net.n == 2**dim
        if dim > 0:
            assert net.diameter() == dim

    def test_degree_is_dim(self):
        net = hypercube(4)
        for v in net.nodes():
            assert net.degree(v) == 4

    def test_distance_is_hamming(self):
        net = hypercube(4)
        assert net.dist(0b0000, 0b1011) == 3
        assert net.dist(0b0101, 0b0101) == 0


class TestButterfly:
    def test_size(self):
        net = butterfly(3)
        assert net.n == 4 * 8

    def test_unit_weights_and_degrees(self):
        net = butterfly(2)
        assert has_unit_weights(net)
        width = net.topology.require("width")
        # boundary levels have degree 2, middle levels degree 4
        for row in range(width):
            assert net.degree(row) == 2  # level 0
            assert net.degree(2 * width + row) == 2  # last level

    def test_diameter_is_logarithmic(self):
        net = butterfly(3)
        assert net.diameter() <= 2 * 3 + 2

    def test_rejects_dim_zero(self):
        with pytest.raises(GraphError):
            butterfly(0)


class TestStar:
    def test_structure(self):
        net = star(8, 7)
        assert net.n == 57
        assert net.topology.require("center") == 0
        rays = net.topology.require("rays")
        assert len(rays) == 8
        assert all(len(r) == 7 for r in rays)

    def test_ray_ordering_tip_to_outward(self):
        net = star(2, 4)
        rays = net.topology.require("rays")
        for ray in rays:
            assert net.has_edge(0, ray[0])
            for a, b in zip(ray, ray[1:]):
                assert net.has_edge(a, b)

    def test_distances_through_center(self):
        net = star(3, 5)
        rays = net.topology.require("rays")
        assert net.dist(rays[0][4], rays[1][4]) == 10
        assert net.dist(0, rays[2][4]) == 5

    def test_is_tree(self):
        assert is_tree(star(4, 6))


class TestDDimGrid:
    def test_matches_square_grid(self):
        a = ddim_grid([3, 3])
        b = grid(3)
        assert a.n == b.n and a.num_edges == b.num_edges

    def test_log_dim_cube_is_hypercube(self):
        a = ddim_grid([2, 2, 2])
        h = hypercube(3)
        assert a.n == h.n and a.num_edges == h.num_edges
        assert a.diameter() == 3

    def test_rejects_empty_dims(self):
        with pytest.raises(GraphError):
            ddim_grid([])


class TestLowerBoundGraphs:
    def test_grid_shape(self):
        net = lower_bound_grid(4)
        topo = net.topology
        assert net.n == 4 ** 2 * 2  # s^{5/2} = 32
        assert topo.require("rows") == 4
        assert topo.require("cols") == 8
        blocks = topo.require("blocks")
        assert len(blocks) == 4
        assert all(len(b) == 8 for b in blocks)

    def test_grid_block_boundary_weight(self):
        net = lower_bound_grid(4)
        cols = net.topology.require("cols")
        root = net.topology.require("root_s")
        # crossing edge in row 0 between block 0 and block 1
        assert net.edge_weight(root - 1, root) == 4
        # interior edge
        assert net.edge_weight(0, 1) == 1
        # vertical edges always 1
        assert net.edge_weight(0, cols) == 1

    def test_grid_rejects_nonsquare_s(self):
        with pytest.raises(GraphError, match="integral"):
            lower_bound_grid(5)

    def test_tree_is_tree(self):
        net = lower_bound_tree(9)
        assert is_tree(net)
        assert net.n == 9 ** 2 * 3  # s^{5/2} = 243

    def test_tree_block_boundary_single_heavy_edge(self):
        net = lower_bound_tree(4)
        root = net.topology.require("root_s")
        heavy = [(u, v, w) for u, v, w in net.edges() if w == 4]
        assert len(heavy) == 3  # s - 1 joining edges
        assert (root - 1, root, 4) in heavy

    def test_blocks_partition_nodes(self):
        for builder in (lower_bound_grid, lower_bound_tree):
            net = builder(4)
            blocks = net.topology.require("blocks")
            flat = [v for b in blocks for v in b]
            assert sorted(flat) == list(range(net.n))

    def test_inter_block_distance_at_least_s(self):
        net = lower_bound_grid(4)
        blocks = net.topology.require("blocks")
        d = min(net.dist(u, v) for u in blocks[0] for v in blocks[1])
        assert d >= 4


class TestTorus:
    def test_structure_and_diameter(self):
        from repro.network import torus

        net = torus(5)
        assert net.n == 25
        assert net.num_edges == 50  # 2 edges per node on a torus
        assert net.diameter() == 4  # floor(5/2) + floor(5/2)
        for v in net.nodes():
            assert net.degree(v) == 4

    def test_wraparound_distances(self):
        from repro.network import torus, grid_node

        net = torus(6)
        # opposite corners are close on a torus
        assert net.dist(grid_node(0, 0, 6), grid_node(5, 5, 6)) == 2

    def test_rectangular(self):
        from repro.network import torus

        net = torus(3, 5)
        assert net.n == 15
        assert net.topology.require("cols") == 5

    def test_rejects_tiny_sides(self):
        from repro.network import torus

        with pytest.raises(GraphError):
            torus(2, 5)

    def test_dispatches_to_diameter_scheduler(self):
        import numpy as np

        from repro.core import resolve_scheduler
        from repro.network import torus
        from repro.workloads import random_k_subsets

        inst = random_k_subsets(torus(4), 6, 2, np.random.default_rng(0))
        assert resolve_scheduler(
            topology=inst.network.topology.name
        ).name == "diameter"


# every builder that hands its network per-axis distances, at the sizes
# where a mixed-radix or broadcast slip would show: one node, a single
# row or column, rectangles, 1-D and 3-D meshes, every small hypercube
PRODUCT_FAMILIES = {
    "line": [lambda: line(1), lambda: line(2), lambda: line(17)],
    "grid": [
        lambda: grid(1), lambda: grid(1, 7), lambda: grid(7, 1),
        lambda: grid(3, 5), lambda: grid(6),
    ],
    "ddim_grid": [
        lambda: ddim_grid([1]), lambda: ddim_grid([9]),
        lambda: ddim_grid([2, 3, 4]), lambda: ddim_grid([3, 1, 2]),
    ],
    "torus": [
        lambda: torus(3), lambda: torus(3, 7), lambda: torus(4, 5),
        lambda: torus(6, 4),
    ],
    "hypercube": [lambda d=d: hypercube(d) for d in range(9)],
    "clique": [
        lambda: clique(1), lambda: clique(2), lambda: clique(9),
        lambda: clique(40),
    ],
}


def _refuse(*args, **kwargs):
    raise AssertionError("all-pairs Dijkstra ran")


def _spy():
    """Patch the all-pairs solve to raise, counting its calls."""
    return mock.patch("repro.network.graph.dijkstra", side_effect=_refuse)


class TestProductDistances:
    """The per-axis formula against the Dijkstra oracle, family by family."""

    def test_formula_matches_dijkstra(self):
        rng = np.random.default_rng(26)
        for family, builders in PRODUCT_FAMILIES.items():
            for build in builders:
                net = build()
                oracle = dijkstra(net._csr, directed=False).astype(np.int64)
                got = net.distance_matrix
                assert got.shape == oracle.shape == (net.n, net.n), family
                assert got.dtype == oracle.dtype, family
                assert np.array_equal(got, oracle), (family, net)
                us = rng.integers(0, net.n, size=25)
                vs = rng.integers(0, net.n, size=25)
                assert np.array_equal(
                    net.pair_distances(us, vs), oracle[us, vs]
                )
                u, v = int(us[0]), int(vs[0])
                assert net.dist(u, v) == oracle[u, v]
                assert net.diameter() == oracle.max()
                subset = np.unique(rng.integers(0, net.n, size=6))
                assert net.subset_diameter(subset.tolist()) == (
                    oracle[np.ix_(subset, subset)].max()
                )

    def test_product_builders_never_solve(self):
        with _spy() as spy:
            for builders in PRODUCT_FAMILIES.values():
                for build in builders:
                    build().distance_matrix
        assert spy.call_count == 0

    def test_topology_tag_buys_no_formula(self):
        # a 3x3 grid tag on the edges of a 9-node line: only the builder
        # that made the edges may vouch for a product
        data = network_to_dict(line(9))
        data["topology"] = {"name": "grid", "params": {"rows": 3, "cols": 3}}
        net = network_from_dict(data)
        assert net.topology.name == "grid"
        assert net.dist(0, 8) == 8
        assert net.diameter() == 8


def _matrix_walk(net, u, v):
    """A shortest path read off the predecessor matrix scalar by scalar.

    The body ``Network.shortest_path`` had before its per-source list
    rows, kept as the oracle the rows must reproduce.
    """
    if u == v:
        return [u]
    pred = net._ensure_pred()
    path = [v]
    cur = v
    while cur != u:
        cur = int(pred[u, cur])
        assert cur >= 0, (u, v)
        path.append(cur)
    path.reverse()
    return path


# the product families plus three that keep Dijkstra for their distances
ROW_FAMILIES = {
    **PRODUCT_FAMILIES,
    "star": [lambda: star(1, 1), lambda: star(3, 4)],
    "cluster": [lambda: cluster(3, 4, 5), lambda: cluster(2, 3, 4)],
    "butterfly": [lambda: butterfly(1), lambda: butterfly(3)],
}


class TestRowLists:
    """Per-source Python rows against the matrices they are made from."""

    def test_rows_match_the_matrix_walk(self):
        for family, builders in ROW_FAMILIES.items():
            for build in builders:
                net = build()
                for u in range(net.n):
                    for v in range(net.n):
                        assert net.shortest_path(u, v) == _matrix_walk(
                            net, u, v
                        ), (family, net, u, v)
                    row = net.distance_row(u)
                    assert type(row) is list, family
                    assert row == net.distance_matrix[u].tolist(), family
                    assert net.distance_row(u) is row  # one list per source
                assert net.diameter() == net.distance_matrix.max(), family

    def test_masked_rows_avoid_the_down_links(self):
        parent = grid(5)
        down = {(6, 7), (7, 12), (0, 5)}
        view = parent.masked(down)
        oracle = dijkstra(view._csr, directed=False).astype(np.int64)
        # rows first: the view's own numpy row cache must still serve
        for u in range(view.n):
            assert view.distance_row(u) == oracle[u].tolist()
            for v in range(view.n):
                path = view.shortest_path(u, v)
                hops = list(zip(path, path[1:]))
                assert not {(min(e), max(e)) for e in hops} & down
                assert sum(view.edge_weight(a, b) for a, b in hops) == (
                    oracle[u, v]
                )
        us = np.arange(view.n).repeat(view.n)
        vs = np.tile(np.arange(view.n), view.n)
        assert np.array_equal(view.pair_distances(us, vs), oracle[us, vs])
        assert view.dist(1, 12) == oracle[1, 12]
        assert np.array_equal(view.distance_matrix, oracle)
        assert view.diameter() == oracle.max()
        assert parent.distance_row(1) == parent.distance_matrix[1].tolist()

    def test_masked_paths_after_the_full_matrix(self):
        # a source whose row came from the full masked matrix has no
        # predecessors of its own yet; its paths must still avoid the
        # down link instead of following the parent's tree through it
        view = grid(4).masked({(0, 4)})
        view.distance_matrix
        for u in range(view.n):
            for v in range(view.n):
                path = view.shortest_path(u, v)
                assert (0, 4) not in {
                    (min(a, b), max(a, b)) for a, b in zip(path, path[1:])
                }
                assert len(path) - 1 == view.dist(u, v)


class TestNoSolveOnTheServicePath:
    """Fault-free windows on a product never solve; other families do."""

    def _service(self, name, size, size2=None):
        net = network_from_sizes(name, size, size2)
        stream = PoissonStream(
            net, w=24, k=2, rate=0.8, rng=spawn(26, "spy", name)
        )
        return SchedulingService(stream, ServiceConfig(window=8))

    def test_fault_free_grid_service(self):
        with _spy() as spy:
            report = self._service("grid", 6).run(windows=12)
        assert spy.call_count == 0
        assert report.committed > 0

    @pytest.mark.parametrize("name,size,size2", [
        ("star", 3, 4), ("cluster", 3, 4), ("butterfly", 3, None),
    ])
    def test_non_product_service_still_solves(self, name, size, size2):
        service = self._service(name, size, size2)
        with _spy() as spy:
            with pytest.raises(AssertionError, match="Dijkstra ran"):
                service.run(windows=12)
        assert spy.call_count == 1

    def test_cluster_worker_incarnation(self, tmp_path):
        spec = WorkerSpec(
            worker=0, shards=2, topology="grid", size=6, size2=None,
            stream=StreamSpec(kind="poisson", w=24, k=2, rate=0.8, seed=7),
            service=ServiceConfig(window=8), windows=4,
            journal_path=str(tmp_path / "worker-0.journal.jsonl"),
            checkpoint_path=str(tmp_path / "worker-0.ckpt.json"),
            checkpoint_every=4,
        )
        with _spy() as spy:
            service = spec.build_service()
            for window in range(4):
                service.run_window(window)
        assert spy.call_count == 0
        assert service.accounting()["committed"] > 0
