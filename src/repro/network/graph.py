"""Weighted communication graph substrate.

The paper models the system as a weighted graph ``G`` whose nodes host
transactions, whose edges are communication links, and whose integer edge
weights are communication delays (an object crossing an edge of weight ``w``
needs ``w`` time steps).  :class:`Network` wraps that model with:

* O(1) shortest-path distance lookups backed by a cached all-pairs matrix
  built once on first use (build the heavy structure once, then do array
  reads in hot loops instead of repeated graph traversals).  A network its
  builder vouches is a Cartesian product of small axes (the line, grid,
  d-dimensional grid, torus, hypercube and clique builders) sums its
  per-axis distance matrices by broadcasting; every other network runs
  :func:`scipy.sparse.csgraph.dijkstra` on its CSR adjacency;
* shortest-path reconstruction for object routing in the simulator, from
  Dijkstra's predecessor matrix, and per-source distance and predecessor
  rows as Python lists, each made with one ``tolist()`` the first time
  its source is asked for, so per-hop loops index plain ints;
* a :class:`Topology` metadata tag so topology-specific schedulers
  (grid/cluster/star/...) can recover structural parameters without
  re-detecting them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components, dijkstra

from ..errors import GraphError

__all__ = ["Topology", "Network"]


@dataclass(frozen=True)
class Topology:
    """Structural metadata attached to a :class:`Network`.

    ``name`` identifies the family (``"clique"``, ``"line"``, ``"grid"``,
    ``"cluster"``, ``"hypercube"``, ``"butterfly"``, ``"star"``,
    ``"lb-grid"``, ``"lb-tree"``, or ``"generic"``); ``params`` carries the
    family-specific construction parameters (e.g. ``rows``/``cols`` for a
    grid, ``clusters``/``bridges``/``gamma`` for a cluster graph).
    """

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        """Return ``params[key]`` or ``default``."""
        return self.params.get(key, default)

    def require(self, key: str) -> Any:
        """Return ``params[key]`` or raise :class:`KeyError` with context."""
        try:
            return self.params[key]
        except KeyError:
            raise KeyError(
                f"topology {self.name!r} is missing required parameter {key!r}"
            ) from None


GENERIC = Topology("generic")


class Network:
    """An undirected, connected, positively integer-weighted graph.

    Nodes are the integers ``0 .. n-1``.  Construction validates weights and
    connectivity; all-pairs shortest-path distances (and, lazily,
    predecessors for path reconstruction) are computed on first use and
    cached for the lifetime of the object.

    A builder that made a Cartesian product's edges hands the network
    one ``(d_i, d_i)`` distance matrix per axis (``_axes``), the node ids
    being mixed radix over the axes with the last axis fastest; the
    distance matrix is then their broadcast sum.  Nothing else selects
    that formula, not even the topology tag.

    Parameters
    ----------
    n:
        Number of nodes.
    edges:
        Iterable of ``(u, v, weight)`` triples.  Duplicate edges must agree
        on weight; self-loops are rejected.
    topology:
        Optional :class:`Topology` metadata (defaults to ``"generic"``).
    """

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int, int]],
        topology: Topology | None = None,
    ) -> None:
        if n <= 0:
            raise GraphError(f"network must have at least one node, got n={n}")
        self._n = int(n)
        self.topology = topology if topology is not None else GENERIC

        adj: dict[int, dict[int, int]] = {}
        for u, v, w in edges:
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at node {u} is not allowed")
            wi = int(w)
            if wi != w or wi <= 0:
                raise GraphError(
                    f"edge ({u}, {v}) weight {w!r} must be a positive integer"
                )
            prev = adj.setdefault(u, {}).get(v)
            if prev is not None and prev != wi:
                raise GraphError(
                    f"conflicting weights for edge ({u}, {v}): {prev} vs {wi}"
                )
            adj.setdefault(u, {})[v] = wi
            adj.setdefault(v, {})[u] = wi
        self._adj = adj

        rows, cols, data = [], [], []
        for u, nbrs in adj.items():
            for v, w in nbrs.items():
                rows.append(u)
                cols.append(v)
                data.append(w)
        self._csr = csr_array(
            (np.asarray(data, dtype=np.int64), (rows, cols)), shape=(n, n)
        )
        if n > 1:
            ncomp, _ = connected_components(self._csr, directed=False)
            if ncomp != 1:
                raise GraphError(
                    f"network must be connected; found {ncomp} components"
                )

        self._axes: tuple[np.ndarray, ...] | None = None
        self._init_caches()

    def _init_caches(self) -> None:
        """Empty every structure built lazily from the edges.

        :class:`~repro.network.masked.MaskedNetwork` runs it too, since a
        view never runs ``Network.__init__``.
        """
        self._dist: np.ndarray | None = None
        self._pred: np.ndarray | None = None
        self._diameter: int | None = None
        self._dist_lists: dict[int, list[int]] = {}
        self._pred_lists: dict[int, list[int]] = {}

    # ------------------------------------------------------------------ #
    # basic structure
    # ------------------------------------------------------------------ #

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self._csr.nnz // 2

    def nodes(self) -> range:
        """All node identifiers, ``range(0, n)``."""
        return range(self._n)

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield each undirected edge once as ``(u, v, weight)`` with u < v."""
        for u in sorted(self._adj):
            for v, w in sorted(self._adj[u].items()):
                if u < v:
                    yield u, v, w

    def neighbors(self, u: int) -> tuple[int, ...]:
        """Nodes adjacent to ``u``, sorted."""
        return tuple(sorted(self._adj.get(u, ())))

    def degree(self, u: int) -> int:
        """Number of edges incident to ``u``."""
        return len(self._adj.get(u, ()))

    def edge_weight(self, u: int, v: int) -> int:
        """Weight of edge ``(u, v)``; raises :class:`GraphError` if absent."""
        try:
            return self._adj[u][v]
        except KeyError:
            raise GraphError(f"no edge between {u} and {v}") from None

    def has_edge(self, u: int, v: int) -> bool:
        """True iff ``(u, v)`` is an edge."""
        return v in self._adj.get(u, ())

    # ------------------------------------------------------------------ #
    # shortest paths
    # ------------------------------------------------------------------ #

    def _ensure_dist(self) -> np.ndarray:
        """The all-pairs matrix: a per-axis sum on a product, else Dijkstra.

        On a Cartesian product the distance between two nodes is the sum
        of their per-axis distances.  Each axis in turn becomes the
        fastest digit of the ids: the ``(m, m)`` matrix of the axes so
        far and the ``(d, d)`` axis broadcast to ``(m, d, m, d)``, whose
        sum reshapes to the ``(m * d, m * d)`` matrix.
        """
        if self._dist is None:
            if self._axes is not None:
                dist = np.zeros((1, 1), dtype=np.int64)
                for axis in self._axes:
                    m, d = len(dist), len(axis)
                    dist = dist[:, None, :, None] + axis[None, :, None, :]
                    dist = dist.reshape(m * d, m * d)
                self._dist = dist
            elif self._n == 1:
                self._dist = np.zeros((1, 1), dtype=np.int64)
            else:
                d = dijkstra(self._csr, directed=False)
                self._dist = d.astype(np.int64)
        return self._dist

    def _ensure_pred(self) -> np.ndarray:
        if self._pred is None:
            if self._n == 1:
                self._pred = np.full((1, 1), -9999, dtype=np.int32)
            else:
                d, pred = dijkstra(
                    self._csr, directed=False, return_predecessors=True
                )
                if self._dist is None:
                    self._dist = d.astype(np.int64)
                self._pred = pred
        return self._pred

    @property
    def distance_matrix(self) -> np.ndarray:
        """All-pairs shortest path distances as an ``(n, n)`` int64 array.

        The returned array is the internal cache; treat it as read-only.
        """
        return self._ensure_dist()

    def dist(self, u: int, v: int) -> int:
        """Shortest-path distance between ``u`` and ``v``."""
        return int(self._ensure_dist()[u, v])

    def distance_row(self, u: int) -> list[int]:
        """Distances from ``u`` to every node, as a Python list.

        Made from ``u``'s row of the distance matrix with one
        ``tolist()`` on first use, then cached per source (not per pair),
        so a per-hop loop reads plain ints.  The list is the cache; treat
        it as read-only.
        """
        row = self._dist_lists.get(u)
        if row is None:
            row = self._dist_lists[u] = self._row(u).tolist()
        return row

    def _row(self, u: int) -> np.ndarray:
        """``u``'s row of the distance matrix."""
        return self._ensure_dist()[u]

    def _pred_row(self, u: int) -> np.ndarray:
        """``u``'s row of the predecessor matrix."""
        return self._ensure_pred()[u]

    def _pred_list(self, u: int) -> list[int]:
        """``u``'s predecessor row as a Python list, cached per source."""
        row = self._pred_lists.get(u)
        if row is None:
            row = self._pred_lists[u] = self._pred_row(u).tolist()
        return row

    def pair_distances(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Batched distance gather: ``result[i] = dist(us[i], vs[i])``.

        The vectorized kernels call this instead of per-pair :meth:`dist`;
        subclasses with partial distance caches override it to compute
        only the rows the gather actually touches.
        """
        return self._ensure_dist()[us, vs]

    def shortest_path(self, u: int, v: int) -> list[int]:
        """A shortest path from ``u`` to ``v`` as a list of nodes (inclusive).

        Walks ``u``'s predecessor row back from ``v``, as a Python list
        made once per source, so the path is the one the predecessor
        matrix names.
        """
        if u == v:
            return [u]
        pred = self._pred_list(u)
        path = [v]
        cur = v
        while cur != u:
            cur = pred[cur]
            if cur < 0:  # pragma: no cover - connectivity validated at init
                raise GraphError(f"no path between {u} and {v}")
            path.append(cur)
        path.reverse()
        return path

    def diameter(self) -> int:
        """Maximum shortest-path distance between any pair of nodes (cached)."""
        if self._diameter is None:
            self._diameter = int(self._ensure_dist().max())
        return self._diameter

    def eccentricity(self, u: int) -> int:
        """Maximum distance from ``u`` to any node."""
        return int(self._ensure_dist()[u].max())

    def subset_diameter(self, nodes: Sequence[int]) -> int:
        """Maximum pairwise distance among ``nodes`` (0 for fewer than 2)."""
        idx = np.fromiter(nodes, dtype=np.intp)
        if idx.size < 2:
            return 0
        sub = self._ensure_dist()[np.ix_(idx, idx)]
        return int(sub.max())

    # ------------------------------------------------------------------ #
    # degraded views
    # ------------------------------------------------------------------ #

    def masked(self, down: Iterable[tuple[int, int]]) -> "Network":
        """This network with the ``down`` edges removed, resolved lazily.

        Returns ``self`` when ``down`` is empty; otherwise a
        :class:`~repro.network.masked.MaskedNetwork` view that reuses this
        network's cached distance rows wherever the removed edges lie on
        no shortest path, and recomputes only the affected sources.
        Raises :class:`GraphError` if the removal disconnects the graph
        or names a non-existent edge.
        """
        from .masked import MaskedNetwork

        down = frozenset((u, v) if u < v else (v, u) for u, v in down)
        if not down:
            return self
        return MaskedNetwork(self, down)

    # ------------------------------------------------------------------ #
    # interop
    # ------------------------------------------------------------------ #

    def to_networkx(self):
        """Export as a :class:`networkx.Graph` with ``weight`` attributes."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self.nodes())
        g.add_weighted_edges_from(self.edges())
        return g

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Network(n={self._n}, edges={self.num_edges}, "
            f"topology={self.topology.name!r})"
        )
