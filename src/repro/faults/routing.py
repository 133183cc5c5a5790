"""Routing around failed links.

Two layers, cheapest first: :func:`path_avoiding` tries the shared detour
machinery (:func:`repro.sim.reroute.detour_candidates` -- the shortest path
plus via-an-intermediate-node alternatives) and returns the first candidate
touching no down link; when every candidate is blocked it falls back to a
full Dijkstra on the masked adjacency, which is complete: it finds a route
iff one exists in the degraded graph.  :func:`route_avoiding` returns the
same path and says whether it is the healthy shortest path.
:func:`degraded_network` returns a lazy
:class:`~repro.network.masked.MaskedNetwork` view without the failed
edges -- the substrate recovery rescheduling plans against after permanent
failures, reusing the healthy network's cached distance rows instead of
recomputing the all-pairs matrix from scratch.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

import numpy as np
from scipy.sparse.csgraph import dijkstra

from ..errors import GraphError, RecoveryError
from ..network.graph import Network
from ..network.masked import masked_csr
from ..sim.reroute import detour_candidates

__all__ = ["path_avoiding", "route_avoiding", "degraded_network"]

Edge = Tuple[int, int]


def _edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _uses_down(path: List[int], down: FrozenSet[Edge]) -> bool:
    return any(_edge(a, b) in down for a, b in zip(path, path[1:]))


def _masked_path(
    net: Network, src: int, dst: int, down: FrozenSet[Edge]
) -> Optional[List[int]]:
    """Shortest path in ``net`` minus ``down``, or None if disconnected."""
    dist, pred = dijkstra(
        masked_csr(net, down),
        directed=False,
        indices=src,
        return_predecessors=True,
    )
    if not np.isfinite(dist[dst]):
        return None
    path = [dst]
    cur = dst
    while cur != src:
        cur = int(pred[cur])
        path.append(cur)
    path.reverse()
    return path


def route_avoiding(
    net: Network,
    src: int,
    dst: int,
    down: FrozenSet[Edge],
    max_detours: int = 16,
) -> Tuple[Optional[List[int]], bool]:
    """:func:`path_avoiding`'s path, and whether it is the healthy one.

    The flag is True iff the path is ``net.shortest_path(src, dst)``
    itself, which no link in ``down`` blocks; a caller learns that it was
    rerouted without rebuilding the healthy path to compare.
    """
    if src == dst:
        return [src], True
    base = net.shortest_path(src, dst)
    if not down or not _uses_down(base, down):
        return base, True
    # the detours are only built once the shortest path is known blocked
    slack = 2 * net.diameter()
    for path in detour_candidates(net, src, dst, slack, max_detours)[1:]:
        if not _uses_down(path, down):
            return path, False
    return _masked_path(net, src, dst, down), False


def path_avoiding(
    net: Network,
    src: int,
    dst: int,
    down: FrozenSet[Edge],
    max_detours: int = 16,
) -> Optional[List[int]]:
    """A path from ``src`` to ``dst`` using no link in ``down``.

    Prefers the healthy shortest path, then the cheapest detour candidates,
    then a complete masked-graph search.  Returns None iff ``down``
    disconnects ``dst`` from ``src``.
    """
    return route_avoiding(net, src, dst, down, max_detours)[0]


def degraded_network(net: Network, down: FrozenSet[Edge]) -> Network:
    """``net`` with the ``down`` edges removed, as a lazy masked view.

    Used by recovery rescheduling to plan the surviving suffix against the
    links that will actually exist.  The view shares the healthy network's
    cached distance rows for every source the failures don't affect (see
    :class:`~repro.network.masked.MaskedNetwork`).  Raises
    :class:`RecoveryError` when the removal disconnects the graph -- no
    recovery schedule can span a partition.
    """
    if not down:
        return net
    try:
        return net.masked(down)
    except GraphError as exc:
        raise RecoveryError(
            f"removing {sorted(down)} disconnects the network: {exc}"
        ) from exc
