"""Weighted transaction dependency (conflict) graph ``H`` (§2.3).

Each node of ``H`` is a transaction; an edge joins two transactions that
share at least one object, weighted by the shortest-path distance in ``G``
between their host nodes.  The greedy schedule colours this graph; the key
quantities are ``h_max`` (maximum edge weight -- itself a lower bound on
execution time, since some object must cross that distance) and the maximum
degree ``Delta``, giving the weighted degree ``Gamma = h_max * Delta`` that
bounds the number of colours.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Tuple

import numpy as np

from .instance import Instance

__all__ = ["DependencyGraph", "ArrayDependencyGraph", "build_reference"]


class DependencyGraph:
    """The conflict graph of an instance (or of a subset of it)."""

    def __init__(self, adjacency: Dict[int, Dict[int, int]]) -> None:
        self._adj = adjacency

    @classmethod
    def build(
        cls, instance: Instance, tids: Iterable[int] | None = None
    ) -> "DependencyGraph":
        """Construct ``H`` for ``instance``, optionally restricted to ``tids``.

        Distances are measured in the full graph ``G`` even for restricted
        builds (the restriction narrows *which* transactions participate,
        not how far apart they are).  Returns the CSR-backed
        :class:`ArrayDependencyGraph`; :func:`build_reference` is the
        per-edge oracle it is tested against.
        """
        return ArrayDependencyGraph.build_arrays(instance, tids)

    # ------------------------------------------------------------------ #

    @property
    def num_vertices(self) -> int:
        """Number of transactions in ``H``."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of conflict edges."""
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def vertices(self) -> Iterator[int]:
        """Transaction ids, ascending."""
        return iter(sorted(self._adj))

    def neighbors(self, tid: int) -> Dict[int, int]:
        """``neighbor tid -> edge weight`` map for ``tid``."""
        return self._adj[tid]

    def degree(self, tid: int) -> int:
        """Number of conflicting transactions."""
        return len(self._adj[tid])

    @property
    def max_degree(self) -> int:
        """``Delta``: the most conflicts any transaction has."""
        return max((len(n) for n in self._adj.values()), default=0)

    @property
    def h_max(self) -> int:
        """Maximum conflict-edge weight (1 if there are no edges).

        ``h_max`` is both the colour spacing used by the greedy schedule and
        a lower bound on any schedule's makespan when an edge exists.
        """
        best = 0
        for nbrs in self._adj.values():
            for w in nbrs.values():
                if w > best:
                    best = w
        return max(best, 1)

    @property
    def weighted_degree(self) -> int:
        """``Gamma = h_max * Delta``; greedy uses at most ``Gamma + 1`` colours."""
        return self.h_max * self.max_degree

    def csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """CSR view ``(tids, indptr, indices, weights)`` of the graph.

        ``tids`` is the sorted vertex list; row ``i`` of the CSR structure
        holds the neighbours of ``tids[i]`` as *positions into ``tids``*
        (``indices``) with parallel edge ``weights``.  Both directions of
        every edge are present.  The vectorized colourer consumes this
        view; the dict-backed graph materializes it on demand.
        """
        tids = sorted(self._adj)
        pos = {t: i for i, t in enumerate(tids)}
        indptr = np.zeros(len(tids) + 1, dtype=np.int64)
        indices: list[int] = []
        weights: list[int] = []
        for i, t in enumerate(tids):
            nbrs = self._adj[t]
            for nbr in sorted(nbrs):
                indices.append(pos[nbr])
                weights.append(nbrs[nbr])
            indptr[i + 1] = len(indices)
        return (
            np.asarray(tids, dtype=np.int64),
            indptr,
            np.asarray(indices, dtype=np.int64),
            np.asarray(weights, dtype=np.int64),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DependencyGraph(V={self.num_vertices}, E={self.num_edges}, "
            f"h_max={self.h_max}, Delta={self.max_degree})"
        )


def build_reference(
    instance: Instance, tids: Iterable[int] | None = None
) -> DependencyGraph:
    """Per-edge pure-Python construction of ``H``: the test oracle.

    The readable form of :meth:`DependencyGraph.build` that the paper's
    definition maps onto; the parity tests require the production build
    to match it edge for edge.
    """
    keep = None if tids is None else set(tids)
    dist = instance.network.dist
    adj: Dict[int, Dict[int, int]] = {}
    for t in instance.transactions:
        if keep is None or t.tid in keep:
            adj[t.tid] = {}
    for obj in instance.objects:
        users = [
            t
            for t in instance.users(obj)
            if keep is None or t.tid in keep
        ]
        for i, a in enumerate(users):
            for b in users[i + 1 :]:
                if b.tid not in adj[a.tid]:
                    d = dist(a.node, b.node)
                    adj[a.tid][b.tid] = d
                    adj[b.tid][a.tid] = d
    return DependencyGraph(adj)


class ArrayDependencyGraph(DependencyGraph):
    """CSR-backed conflict graph, the one :meth:`DependencyGraph.build` returns.

    Same public surface as :class:`DependencyGraph`; the adjacency dicts
    are materialized lazily, so the hot pipeline (build then colour) never
    pays for per-edge Python dict construction.  The builder enumerates
    every object's conflict pairs at once from the instance's cached
    :attr:`~repro.core.instance.Instance.incidence` arrays (a restricted
    build masks the same arrays), dedupes pairs with one sort, and
    gathers all edge weights in a single ``pair_distances`` read.
    """

    def __init__(
        self,
        tids: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        self._tids = tids
        self._indptr = indptr
        self._indices = indices
        self._weights = weights
        self._adj_lazy: Dict[int, Dict[int, int]] | None = None

    @classmethod
    def build_arrays(
        cls, instance: Instance, tids: Iterable[int] | None = None
    ) -> "ArrayDependencyGraph":
        """Array construction of ``H`` (see :meth:`DependencyGraph.build`)."""
        inc = instance.incidence
        seg = np.diff(inc.indptr)
        txn = inc.txn
        if tids is None:
            kept = np.ones(len(inc.tids), dtype=bool)
        else:
            kept = np.isin(inc.tids, np.fromiter(tids, dtype=np.int64))
            mask = kept[txn]
            txn = txn[mask]
            seg = np.bincount(
                np.repeat(np.arange(len(seg)), seg)[mask], minlength=len(seg)
            )
        # vertices in tid order; rank[i] is transaction i's vertex position
        kept_pos = np.flatnonzero(kept)
        perm = kept_pos[np.argsort(inc.tids[kept_pos], kind="stable")]
        vert = inc.tids[perm]
        node_of = inc.nodes[perm]
        m = len(vert)
        rank = np.empty(len(inc.tids), dtype=np.int64)
        rank[perm] = np.arange(m, dtype=np.int64)

        # the (object, user) incidences of objects with >= 2 kept users
        pairs = seg >= 2
        if not pairs.any():
            empty = np.zeros(0, dtype=np.int64)
            return cls(vert, np.zeros(m + 1, dtype=np.int64), empty, empty)
        upos = rank[txn[np.repeat(pairs, seg)]]
        seg = seg[pairs]

        # all within-object pairs in one shot: incidence i pairs with the
        # counts[i] incidences after it in its own segment
        n_inc = len(upos)
        starts = np.zeros(len(seg), dtype=np.int64)
        np.cumsum(seg[:-1], out=starts[1:])
        pos_in_seg = np.arange(n_inc, dtype=np.int64) - np.repeat(starts, seg)
        counts = np.repeat(seg, seg) - 1 - pos_in_seg
        total = int(counts.sum())
        a_idx = np.repeat(np.arange(n_inc, dtype=np.int64), counts)
        cum = np.zeros(n_inc, dtype=np.int64)
        np.cumsum(counts[:-1], out=cum[1:])
        b_idx = a_idx + 1 + (np.arange(total, dtype=np.int64)
                             - np.repeat(cum, counts))
        a = upos[a_idx]
        b = upos[b_idx]

        # dedupe pairs sharing several objects: sort-based unique (the
        # hash-based np.unique is ~15x slower at this size)
        keys = np.sort(np.minimum(a, b) * m + np.maximum(a, b))
        if len(keys) > 1:
            keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        lo, hi = keys // m, keys % m
        w = instance.network.pair_distances(node_of[lo], node_of[hi])

        # both edge directions in row-major order (columns ascending in
        # each row) from one sort of their row * m + column keys
        both = np.concatenate([keys, hi * m + lo])
        order = np.argsort(both)
        both = both[order]
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(both // m, minlength=m), out=indptr[1:])
        return cls(
            vert,
            indptr,
            both % m,
            np.concatenate([w, w])[order].astype(np.int64, copy=False),
        )

    # ------------------------------------------------------------------ #
    # lazy dict view (for callers that want the reference surface)
    # ------------------------------------------------------------------ #

    @property
    def _adj(self) -> Dict[int, Dict[int, int]]:
        if self._adj_lazy is None:
            tids = self._tids.tolist()
            indptr = self._indptr.tolist()
            nbr_tids = self._tids[self._indices].tolist()
            weights = self._weights.tolist()
            self._adj_lazy = {
                t: dict(
                    zip(
                        nbr_tids[indptr[i] : indptr[i + 1]],
                        weights[indptr[i] : indptr[i + 1]],
                    )
                )
                for i, t in enumerate(tids)
            }
        return self._adj_lazy

    # ------------------------------------------------------------------ #
    # array-native accessors (no dict materialization)
    # ------------------------------------------------------------------ #

    @property
    def num_vertices(self) -> int:
        """Number of transactions in ``H``."""
        return len(self._tids)

    @property
    def num_edges(self) -> int:
        """Number of conflict edges."""
        return len(self._indices) // 2

    def vertices(self) -> Iterator[int]:
        """Transaction ids, ascending."""
        return iter(self._tids.tolist())

    def degree(self, tid: int) -> int:
        """Number of conflicting transactions (``KeyError`` if absent)."""
        i = int(np.searchsorted(self._tids, tid))
        if i == len(self._tids) or self._tids[i] != tid:
            raise KeyError(tid)
        return int(self._indptr[i + 1] - self._indptr[i])

    @property
    def max_degree(self) -> int:
        """``Delta``: the most conflicts any transaction has."""
        if len(self._tids) == 0:
            return 0
        return int(np.diff(self._indptr).max())

    @property
    def h_max(self) -> int:
        """Maximum conflict-edge weight (1 if there are no edges)."""
        if len(self._weights) == 0:
            return 1
        return max(int(self._weights.max()), 1)

    def csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The stored CSR arrays (no conversion needed)."""
        return self._tids, self._indptr, self._indices, self._weights
