"""Builders for the specialized topologies studied in the paper.

Each builder returns a :class:`~repro.network.graph.Network` tagged with
:class:`~repro.network.graph.Topology` metadata that the corresponding
scheduler consumes (e.g. the cluster scheduler reads the cluster membership
and bridge nodes straight from the metadata instead of re-detecting them).

Families (paper section in parentheses):

* :func:`clique` -- complete graph, unit weights (§3)
* :func:`line` -- path graph, unit weights (§4)
* :func:`grid` -- ``rows x cols`` mesh, unit weights (§5)
* :func:`cluster` -- ``alpha`` cliques of ``beta`` nodes joined by
  bridge edges of weight ``gamma >= beta`` (§6)
* :func:`hypercube` -- ``2^dim`` nodes, unit weights (§3.1)
* :func:`butterfly` -- ``(dim+1) * 2^dim`` nodes, unit weights (§3.1)
* :func:`star` -- ``alpha`` rays of ``beta`` nodes around a center (§7)
* :func:`ddim_grid` -- general d-dimensional mesh (§3.1)
* :func:`lower_bound_grid` / :func:`lower_bound_tree` -- the §8 hard-instance
  substrates (``s`` blocks of ``s x sqrt(s)`` nodes, inter-block weight ``s``)

The clique, line, grid, torus, hypercube and d-dimensional grid are
Cartesian products of one clique, paths or cycles.  Their builders hand
the network one small distance matrix per axis, so its all-pairs
distances are a broadcast sum instead of a Dijkstra solve; every other
family is solved by Dijkstra.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..errors import GraphError
from .graph import Network, Topology

__all__ = [
    "clique",
    "line",
    "grid",
    "grid_node",
    "grid_coords",
    "cluster",
    "hypercube",
    "butterfly",
    "star",
    "torus",
    "ddim_grid",
    "lower_bound_grid",
    "lower_bound_tree",
]


def _path(length: int) -> np.ndarray:
    """Distances along a unit-weight path: ``|i - j|``."""
    i = np.arange(length, dtype=np.int64)
    return np.abs(i[:, None] - i[None, :])


def _cycle(length: int) -> np.ndarray:
    """Distances around a unit-weight cycle: ``min(|i - j|, L - |i - j|)``."""
    d = _path(length)
    return np.minimum(d, length - d)


def _product(
    n: int, edges: list[tuple[int, int, int]], topo: Topology,
    *axes: np.ndarray,
) -> Network:
    """A network whose edges are the Cartesian product of ``axes``.

    Only a builder that made the edges can vouch for them, so only the
    builders below call this; node ids must be mixed radix over the
    axes, last axis fastest.
    """
    net = Network(n, edges, topo)
    net._axes = axes
    return net


def clique(n: int) -> Network:
    """Complete graph on ``n`` nodes with unit edge weights (§3)."""
    if n < 1:
        raise GraphError(f"clique needs n >= 1, got {n}")
    edges = [(u, v, 1) for u in range(n) for v in range(u + 1, n)]
    axis = 1 - np.eye(n, dtype=np.int64)
    return _product(n, edges, Topology("clique", {"n": n}), axis)


def line(n: int) -> Network:
    """Path graph ``v_0 - v_1 - ... - v_{n-1}`` with unit weights (§4)."""
    if n < 1:
        raise GraphError(f"line needs n >= 1, got {n}")
    edges = [(i, i + 1, 1) for i in range(n - 1)]
    return _product(n, edges, Topology("line", {"n": n}), _path(n))


def grid_node(r: int, c: int, cols: int) -> int:
    """Node id of grid cell ``(r, c)`` in row-major order."""
    return r * cols + c


def grid_coords(v: int, cols: int) -> tuple[int, int]:
    """Inverse of :func:`grid_node`: ``(row, col)`` of node ``v``."""
    return divmod(v, cols)


def grid(rows: int, cols: int | None = None) -> Network:
    """``rows x cols`` mesh with unit weights (§5; cols defaults to rows).

    Node ``(r, c)`` has id ``r * cols + c``; border nodes have degree 3 and
    corners degree 2, exactly as in the paper's model.
    """
    if cols is None:
        cols = rows
    if rows < 1 or cols < 1:
        raise GraphError(f"grid needs positive dims, got {rows}x{cols}")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = grid_node(r, c, cols)
            if c + 1 < cols:
                edges.append((v, v + 1, 1))
            if r + 1 < rows:
                edges.append((v, v + cols, 1))
    topo = Topology("grid", {"rows": rows, "cols": cols})
    return _product(rows * cols, edges, topo, _path(rows), _path(cols))


def cluster(alpha: int, beta: int, gamma: int | None = None) -> Network:
    """Cluster graph: ``alpha`` cliques of ``beta`` nodes (§6, Fig 3).

    Cluster ``j`` occupies node ids ``[j*beta, (j+1)*beta)``; its bridge node
    is ``j*beta``.  Every pair of bridge nodes is joined by a bridge edge of
    weight ``gamma`` (default ``beta``; the paper assumes ``gamma >= beta``).
    """
    if alpha < 1 or beta < 1:
        raise GraphError(f"cluster needs alpha,beta >= 1, got {alpha},{beta}")
    if gamma is None:
        gamma = max(beta, 1)
    if gamma < beta:
        raise GraphError(f"cluster requires gamma >= beta, got {gamma} < {beta}")
    edges = []
    clusters = []
    bridges = []
    for j in range(alpha):
        base = j * beta
        members = tuple(range(base, base + beta))
        clusters.append(members)
        bridges.append(base)
        for a in range(beta):
            for b in range(a + 1, beta):
                edges.append((base + a, base + b, 1))
    for i in range(alpha):
        for j in range(i + 1, alpha):
            edges.append((bridges[i], bridges[j], gamma))
    topo = Topology(
        "cluster",
        {
            "alpha": alpha,
            "beta": beta,
            "gamma": gamma,
            "clusters": tuple(clusters),
            "bridges": tuple(bridges),
        },
    )
    return Network(alpha * beta, edges, topo)


def hypercube(dim: int) -> Network:
    """``dim``-dimensional hypercube on ``2^dim`` nodes, unit weights (§3.1)."""
    if dim < 0:
        raise GraphError(f"hypercube needs dim >= 0, got {dim}")
    n = 1 << dim
    edges = []
    for u in range(n):
        for b in range(dim):
            v = u ^ (1 << b)
            if u < v:
                edges.append((u, v, 1))
    topo = Topology("hypercube", {"dim": dim, "n": n})
    return _product(n, edges, topo, *[_path(2)] * dim)


def butterfly(dim: int) -> Network:
    """(Unwrapped) butterfly network of dimension ``dim`` (§3.1).

    Nodes are ``(level, row)`` with ``level in 0..dim`` and
    ``row in 0..2^dim - 1``; id = ``level * 2^dim + row``.  Straight edges
    connect ``(l, r)-(l+1, r)``; cross edges connect
    ``(l, r)-(l+1, r XOR 2^l)``.
    """
    if dim < 1:
        raise GraphError(f"butterfly needs dim >= 1, got {dim}")
    width = 1 << dim
    n = (dim + 1) * width
    edges = []
    for level in range(dim):
        for row in range(width):
            u = level * width + row
            edges.append((u, (level + 1) * width + row, 1))
            edges.append((u, (level + 1) * width + (row ^ (1 << level)), 1))
    topo = Topology("butterfly", {"dim": dim, "width": width, "levels": dim + 1})
    return Network(n, edges, topo)


def star(alpha: int, beta: int) -> Network:
    """Star graph: ``alpha`` rays of ``beta`` nodes around center 0 (§7, Fig 4).

    Ray ``r`` occupies ids ``1 + r*beta .. 1 + (r+1)*beta - 1`` ordered from
    the tip (adjacent to the center) outward; every edge has weight 1.
    """
    if alpha < 1 or beta < 1:
        raise GraphError(f"star needs alpha,beta >= 1, got {alpha},{beta}")
    edges = []
    rays = []
    for r in range(alpha):
        base = 1 + r * beta
        ray_nodes = tuple(range(base, base + beta))
        rays.append(ray_nodes)
        edges.append((0, base, 1))
        for i in range(beta - 1):
            edges.append((base + i, base + i + 1, 1))
    topo = Topology(
        "star",
        {"alpha": alpha, "beta": beta, "center": 0, "rays": tuple(rays)},
    )
    return Network(1 + alpha * beta, edges, topo)


def ddim_grid(dims: Sequence[int]) -> Network:
    """General d-dimensional mesh with unit weights (§3.1).

    ``dims`` gives the side length along each axis; node ids enumerate the
    lattice in mixed-radix order with the last axis fastest.
    """
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise GraphError(f"ddim_grid needs positive dims, got {dims}")
    n = math.prod(dims)
    strides = [1] * len(dims)
    for i in range(len(dims) - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]

    edges = []

    def _walk(prefix: list[int]) -> None:
        if len(prefix) == len(dims):
            v = sum(p * s for p, s in zip(prefix, strides))
            for axis, d in enumerate(dims):
                if prefix[axis] + 1 < d:
                    edges.append((v, v + strides[axis], 1))
            return
        for x in range(dims[len(prefix)]):
            _walk(prefix + [x])

    _walk([])
    topo = Topology("ddim-grid", {"dims": dims, "strides": tuple(strides)})
    return _product(n, edges, topo, *[_path(d) for d in dims])


def torus(rows: int, cols: int | None = None) -> Network:
    """``rows x cols`` torus (wraparound mesh) with unit weights (§3.1).

    A diameter-``(rows + cols) / 2`` member of the d-dimensional-grid
    family; scheduled by the same diameter-scaled greedy algorithm.
    Wraparound edges require side lengths of at least 3 (a length-2 ring
    would duplicate edges).
    """
    if cols is None:
        cols = rows
    if rows < 3 or cols < 3:
        raise GraphError(f"torus needs dims >= 3, got {rows}x{cols}")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = grid_node(r, c, cols)
            edges.append((v, grid_node(r, (c + 1) % cols, cols), 1))
            edges.append((v, grid_node((r + 1) % rows, c, cols), 1))
    topo = Topology("torus", {"rows": rows, "cols": cols})
    return _product(rows * cols, edges, topo, _cycle(rows), _cycle(cols))


def _require_square(s: int) -> int:
    root = math.isqrt(s)
    if root * root != s:
        raise GraphError(
            f"lower-bound constructions need sqrt(s) integral, got s={s}"
        )
    return root


def lower_bound_grid(s: int) -> Network:
    """The §8.1 grid-of-blocks substrate (Fig 5).

    An ``s x (s * sqrt(s))`` grid of ``n = s^{5/2}`` nodes partitioned into
    ``s`` blocks ``H_1..H_s`` of ``s`` rows by ``sqrt(s)`` columns.  Edges
    within a block have weight 1; horizontal edges that cross a block
    boundary have weight ``s``.
    """
    if s < 1:
        raise GraphError(f"lower_bound_grid needs s >= 1, got {s}")
    root = _require_square(s)
    rows, cols = s, s * root
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = grid_node(r, c, cols)
            if c + 1 < cols:
                w = s if (c + 1) % root == 0 else 1
                edges.append((v, v + 1, w))
            if r + 1 < rows:
                edges.append((v, v + cols, 1))
    blocks = tuple(
        tuple(
            grid_node(r, c, cols)
            for r in range(rows)
            for c in range(j * root, (j + 1) * root)
        )
        for j in range(s)
    )
    topo = Topology(
        "lb-grid",
        {"s": s, "root_s": root, "rows": rows, "cols": cols, "blocks": blocks},
    )
    return Network(rows * cols, edges, topo)


def lower_bound_tree(s: int) -> Network:
    """The §8.2 tree-of-blocks substrate (Fig 6).

    Same node layout as :func:`lower_bound_grid`, but each block is a comb
    tree: the leftmost column is a vertical path and each row is a horizontal
    path hanging off it.  Adjacent blocks are joined by a single weight-``s``
    edge along the topmost row, keeping the whole graph a tree.
    """
    if s < 1:
        raise GraphError(f"lower_bound_tree needs s >= 1, got {s}")
    root = _require_square(s)
    rows, cols = s, s * root
    edges = []
    for j in range(s):
        left = j * root
        for r in range(rows):
            for c in range(left, left + root - 1):
                edges.append((grid_node(r, c, cols), grid_node(r, c + 1, cols), 1))
            if r + 1 < rows:
                edges.append(
                    (grid_node(r, left, cols), grid_node(r + 1, left, cols), 1)
                )
        if j + 1 < s:
            edges.append(
                (
                    grid_node(0, left + root - 1, cols),
                    grid_node(0, left + root, cols),
                    s,
                )
            )
    blocks = tuple(
        tuple(
            grid_node(r, c, cols)
            for r in range(rows)
            for c in range(j * root, (j + 1) * root)
        )
        for j in range(s)
    )
    topo = Topology(
        "lb-tree",
        {"s": s, "root_s": root, "rows": rows, "cols": cols, "blocks": blocks},
    )
    return Network(rows * cols, edges, topo)
