"""Greedy weighted colouring of the dependency graph (§2.3).

A valid colouring assigns each transaction a positive integer such that
adjacent transactions receive colours differing by at least the weight of
the edge joining them.  The paper's scheme uses only colours of the form
``j * h_max + 1`` for ``j in 0..Delta``: adjacent transactions then satisfy
every edge constraint automatically (distinct multiples of ``h_max`` differ
by at least ``h_max >= w``), and the pigeonhole argument guarantees a free
colour among the first ``Delta + 1`` multiples.  Total colours used is at
most ``Gamma + 1 = h_max * Delta + 1``.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..errors import SchedulingError
from .dependency import DependencyGraph

__all__ = [
    "greedy_color",
    "greedy_color_reference",
    "validate_coloring",
    "order_vertices",
]


def order_vertices(
    graph: DependencyGraph,
    strategy: str = "id",
    rng: np.random.Generator | None = None,
) -> list[int]:
    """Vertex processing order for the greedy colourer.

    ``"id"`` (deterministic, ascending tid), ``"degree"`` (descending
    conflict degree -- the classic Welsh-Powell heuristic), or ``"random"``
    (requires ``rng``; used by the random-order baseline).
    """
    verts = list(graph.vertices())
    if strategy == "id":
        return verts
    if strategy == "degree":
        return sorted(verts, key=lambda t: (-graph.degree(t), t))
    if strategy == "random":
        if rng is None:
            raise SchedulingError("random ordering requires an rng")
        verts = np.asarray(verts)
        return [int(v) for v in rng.permutation(verts)]
    raise SchedulingError(f"unknown ordering strategy {strategy!r}")


def greedy_color_reference(
    graph: DependencyGraph, order: Sequence[int] | None = None
) -> Dict[int, int]:
    """Per-vertex set-based form of :func:`greedy_color`: the test oracle.

    Reads like the §2.3 pseudocode; the parity tests require
    :func:`greedy_color` to assign the same colours for any order.
    """
    h_max = graph.h_max
    colors: Dict[int, int] = {}
    if order is None:
        order = list(graph.vertices())
    for tid in order:
        used = set()
        for nbr in graph.neighbors(tid):
            c = colors.get(nbr)
            if c is not None:
                used.add((c - 1) // h_max)
        j = 0
        while j in used:
            j += 1
        if j > graph.degree(tid):  # pragma: no cover - pigeonhole guarantee
            raise SchedulingError(
                f"greedy colouring exceeded degree bound at tid {tid}"
            )
        colors[tid] = j * h_max + 1
    return colors


def greedy_color(
    graph: DependencyGraph, order: Sequence[int] | None = None
) -> Dict[int, int]:
    """Colour ``graph`` with colours ``{j * h_max + 1 : j >= 0}``.

    Processes vertices in ``order`` (default: ascending tid); each vertex
    takes the smallest index ``j`` whose colour no coloured neighbour holds.
    The result satisfies ``color <= Gamma + 1`` (asserted) and the weighted
    validity condition checked by :func:`validate_coloring`.  A tid in
    ``order`` that is not a vertex raises ``KeyError``.

    Works on the graph's CSR view with flat slot/neighbour arrays and a
    per-vertex *bitmask* of occupied colour slots (one big-int OR per
    neighbour, lowest-zero-bit extraction for the free slot) instead of
    per-vertex Python dicts and sets.  Picks the same smallest-free slot
    as :func:`greedy_color_reference` for any processing order.
    """
    tids, indptr, indices, _ = graph.csr()
    m = len(tids)
    if order is None:
        order_pos = range(m)
    else:
        want = np.asarray(order, dtype=np.int64)
        pos = np.searchsorted(tids, want)
        found = pos < m
        found[found] = tids[pos[found]] == want[found]
        if not found.all():
            raise KeyError(int(want[np.argmin(found)]))
        order_pos = pos.tolist()
    if m == 0:
        return {}
    h_max = graph.h_max
    ptr = indptr.tolist()
    nbrs = indices.tolist()
    max_deg = int(np.diff(indptr).max()) if len(indices) else 0
    bit = [1 << j for j in range(max_deg + 1)]  # slot -> bitmask, no allocs
    slot = [0] * m  # occupied-slot bit or 0 while uncoloured
    j_of = np.empty(m, dtype=np.int64)
    for v in order_pos:
        lo, hi = ptr[v], ptr[v + 1]
        mask = 0
        for u in nbrs[lo:hi]:
            mask |= slot[u]
        j = ((mask + 1) & ~mask).bit_length() - 1  # lowest zero bit
        if j > hi - lo:  # pragma: no cover - pigeonhole guarantee
            raise SchedulingError(
                f"greedy colouring exceeded degree bound at tid {int(tids[v])}"
            )
        slot[v] = bit[j]
        j_of[v] = j
    color_of = (j_of * h_max + 1).tolist()
    tid_list = tids.tolist()
    if order is None:
        return dict(zip(tid_list, color_of))
    return {tid_list[v]: color_of[v] for v in order_pos}


def validate_coloring(graph: DependencyGraph, colors: Dict[int, int]) -> None:
    """Raise :class:`SchedulingError` unless ``colors`` is a valid weighted colouring."""
    for tid in graph.vertices():
        if tid not in colors:
            raise SchedulingError(f"vertex {tid} is uncoloured")
        if colors[tid] < 1:
            raise SchedulingError(f"vertex {tid} has non-positive colour")
        for nbr, w in graph.neighbors(tid).items():
            if nbr in colors and abs(colors[tid] - colors[nbr]) < w:
                raise SchedulingError(
                    f"colours of {tid} and {nbr} differ by "
                    f"{abs(colors[tid] - colors[nbr])} < edge weight {w}"
                )
