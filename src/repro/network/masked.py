"""Degraded-network views with lazy per-source shortest paths.

Removing a handful of failed links used to mean rebuilding a full
:class:`~repro.network.graph.Network` and recomputing its all-pairs
Dijkstra from scratch -- ``O(n)`` single-source solves for a failure that
typically perturbs a few rows.  :class:`MaskedNetwork` instead *views*
the parent network minus a set of down edges:

* structure (adjacency, CSR) is derived by masking the parent's cached
  arrays, not by re-validating edge lists;
* distances are resolved per source row, on demand.  A row whose source
  has **no** shortest path through any down edge (checked against the
  parent's cached matrix: ``D[u,a] + w > D[u,b]`` and symmetrically for
  every down edge ``(a, b, w)``) reuses the parent's row outright; only
  the genuinely affected rows pay a Dijkstra solve on the masked graph.

:attr:`MaskedNetwork.dijkstra_solves` counts the single-source solves
actually performed, which the tests use to pin down the laziness.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Tuple

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components, dijkstra

from ..errors import GraphError
from .graph import Network

__all__ = ["MaskedNetwork", "masked_csr"]

Edge = Tuple[int, int]


def _normalize(down: Iterable[Edge]) -> FrozenSet[Edge]:
    return frozenset((u, v) if u < v else (v, u) for u, v in down)


def masked_csr(net: Network, down: Iterable[Edge]) -> csr_array:
    """The network's CSR adjacency with the ``down`` edges zeroed out.

    Vectorized mask over the cached CSR's COO triplets (both directions
    of each down edge), replacing the per-edge Python rebuild the fault
    router used to do on every blocked-path query.
    """
    norm = _normalize(down)
    if not norm:
        return net._csr
    coo = net._csr.tocoo()
    n = net.n
    down_keys = np.asarray(
        [u * n + v for u, v in norm] + [v * n + u for u, v in norm],
        dtype=np.int64,
    )
    keep = ~np.isin(coo.row.astype(np.int64) * n + coo.col, down_keys)
    return csr_array(
        (coo.data[keep], (coo.row[keep], coo.col[keep])), shape=(n, n)
    )


class MaskedNetwork(Network):
    """A :class:`Network` minus a set of down edges, resolved lazily.

    Construct via :meth:`Network.masked`.  Same public surface as
    :class:`Network`; raises :class:`~repro.errors.GraphError` at
    construction if the removal disconnects the graph (or names a
    non-existent edge).
    """

    def __init__(self, parent: Network, down: Iterable[Edge]) -> None:
        norm = _normalize(down)
        for u, v in sorted(norm):
            parent.edge_weight(u, v)  # GraphError if the edge is absent
        self._parent = parent
        self.down = norm
        self._n = parent.n
        self.topology = parent.topology
        self._adj = {
            u: {
                v: w
                for v, w in nbrs.items()
                if ((u, v) if u < v else (v, u)) not in norm
            }
            for u, nbrs in parent._adj.items()
        }
        self._csr = masked_csr(parent, norm)
        if self._n > 1:
            ncomp, _ = connected_components(self._csr, directed=False)
            if ncomp != 1:
                raise GraphError(
                    f"removing {sorted(norm)} disconnects the network: "
                    f"found {ncomp} components"
                )
        self._init_caches()
        self._dist_rows: Dict[int, np.ndarray] = {}
        self._pred_rows: Dict[int, np.ndarray] = {}
        self._reusable_rows: np.ndarray | None = None
        #: single-source Dijkstra solves performed so far (laziness probe)
        self.dijkstra_solves = 0

    # ------------------------------------------------------------------ #
    # lazy row resolution
    # ------------------------------------------------------------------ #

    def _reusable(self) -> np.ndarray:
        """Boolean mask of sources whose parent distance row still holds.

        Source ``u``'s row is reusable iff no down edge is an edge of
        ``u``'s shortest-path tree in the parent (edge ``(a, b)`` is in
        the tree iff ``pred[u, b] == a`` or ``pred[u, a] == b``).  An
        intact tree means every parent distance from ``u`` is still
        achieved by a surviving path, so the distance row -- and the pred
        row itself -- carry over unchanged.
        """
        if self._reusable_rows is None:
            P = self._parent._ensure_pred()
            ok = np.ones(self._n, dtype=bool)
            for a, b in self.down:
                ok &= (P[:, b] != a) & (P[:, a] != b)
            self._reusable_rows = ok
        return self._reusable_rows

    def _row(self, u: int) -> np.ndarray:
        if self._dist is not None:
            return self._dist[u]
        row = self._dist_rows.get(u)
        if row is None:
            if self._reusable()[u]:
                row = self._parent._ensure_dist()[u]
            else:
                row = self._solve(u)
            self._dist_rows[u] = row
        return row

    def _solve(self, u: int) -> np.ndarray:
        self.dijkstra_solves += 1
        d, p = dijkstra(
            self._csr, directed=False, indices=u, return_predecessors=True
        )
        if not np.isfinite(d).all():  # pragma: no cover - checked at init
            raise GraphError(f"node {u} is disconnected in the masked graph")
        self._pred_rows[u] = p
        return d.astype(np.int64)

    # ------------------------------------------------------------------ #
    # Network surface, rerouted through the row cache
    # ------------------------------------------------------------------ #

    def dist(self, u: int, v: int) -> int:
        """Shortest-path distance in the degraded graph."""
        return int(self._row(u)[v])

    def pair_distances(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Batched gather computing only the source rows it touches."""
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if self._dist is not None:
            return self._dist[us, vs]
        out = np.empty(len(us), dtype=np.int64)
        for u in np.unique(us).tolist():
            sel = us == u
            out[sel] = self._row(u)[vs[sel]]
        return out

    def _pred_row(self, u: int) -> np.ndarray:
        """``u``'s predecessors on shortest paths avoiding the down edges."""
        self._row(u)  # solves u, predecessors too, while rows are lazy
        row = self._pred_rows.get(u)
        if row is not None:
            return row
        if self._pred is not None:
            return self._pred[u]
        if self._reusable()[u]:
            # no shortest path from u touches a down edge, so the
            # parent's tree is valid here
            return self._parent._ensure_pred()[u]
        # the row came from the full matrix, solved without predecessors
        self._solve(u)
        return self._pred_rows[u]

    def _ensure_dist(self) -> np.ndarray:
        if self._dist is None:
            D = np.array(self._parent._ensure_dist(), copy=True)
            stale = np.flatnonzero(~self._reusable())
            for u, row in self._dist_rows.items():
                D[u] = row
                stale = stale[stale != u]
            if len(stale):
                self.dijkstra_solves += len(stale)
                d = dijkstra(self._csr, directed=False, indices=stale)
                if not np.isfinite(d).all():  # pragma: no cover
                    raise GraphError("masked graph is disconnected")
                D[stale] = d.astype(np.int64)
            self._dist = D
        return self._dist

    def _ensure_pred(self) -> np.ndarray:
        if self._pred is None:
            self.dijkstra_solves += self._n
            d, pred = dijkstra(
                self._csr, directed=False, return_predecessors=True
            )
            self._dist = d.astype(np.int64)
            self._pred = pred
        return self._pred

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MaskedNetwork(n={self._n}, down={sorted(self.down)}, "
            f"topology={self.topology.name!r})"
        )
