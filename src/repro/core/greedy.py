"""The basic greedy schedule (§2.3) as a generic scheduler.

Colour the dependency graph, read the colour as the commit time step, and
shift everything by a *positioning offset* so each object's first leg (home
node to first user) fits.  The paper's ``O(Delta + 1)``-approximation
statement assumes objects start at their first user (offset 0); for
arbitrary homes the offset equals the worst first-leg slack, which Theorem 3
absorbs as the extra ``tau`` term.

This one scheduler *is* the clique algorithm of Theorem 1, and -- run on the
true shortest-path distances -- the hypercube/butterfly/diameter-``d``
algorithm of §3.1.  Subclasses attach the topology-specific theoretical
bound for test/bench assertions; :class:`CliqueScheduler` also rejects any
network but a clique, the only family on which its bound holds.
"""

from __future__ import annotations

import numpy as np

from ..errors import TopologyError
from .coloring import greedy_color, order_vertices
from .dependency import DependencyGraph
from .instance import Instance
from .schedule import Schedule
from .scheduler import Scheduler

__all__ = [
    "GreedyScheduler",
    "positioning_offset",
    "positioning_offset_reference",
]


def positioning_offset_reference(
    instance: Instance, colors: dict[int, int]
) -> int:
    """Per-object loop form of :func:`positioning_offset`: the test oracle.

    For each object, the first user is the one with the smallest colour;
    the object must cover ``dist(home, first user)`` by that commit time,
    so the shift is ``max(0, max_o (dist_o - color_first_o))``.
    """
    dist = instance.network.dist
    offset = 0
    for obj in instance.objects:
        users = instance.users(obj)
        if not users:
            continue
        first = min(users, key=lambda t: (colors[t.tid], t.tid))
        need = dist(instance.home(obj), first.node) - colors[first.tid]
        if need > offset:
            offset = need
    return offset


def positioning_offset(
    instance: Instance, colors: dict[int, int]
) -> int:
    """Smallest global time shift making every object's first leg feasible.

    Same value as :func:`positioning_offset_reference`, read from the
    instance's incidence arrays: one lexsort picks every object's first
    user by ``(colour, tid)`` and one ``pair_distances`` gather measures
    all first legs.
    """
    inc = instance.incidence
    color = inc.per_txn(colors)
    first = inc.first_users(color, inc.tids)
    homes = instance.object_homes
    home = np.fromiter(
        map(homes.__getitem__, inc.objects.tolist()), np.int64,
        len(inc.objects),
    )
    legs = instance.network.pair_distances(home, inc.nodes[first])
    return int((legs - color[first]).max(initial=0))


class GreedyScheduler(Scheduler):
    """Greedy colouring schedule of §2.3.

    Parameters
    ----------
    order:
        Vertex ordering strategy (``"id"``, ``"degree"``, ``"random"``);
        any strategy preserves the ``Gamma + 1`` colour bound.
    """

    name = "greedy"

    def __init__(self, order: str = "id") -> None:
        self.order = order

    def schedule(
        self, instance: Instance, rng: np.random.Generator | None = None
    ) -> Schedule:
        graph = DependencyGraph.build(instance)
        order = order_vertices(graph, self.order, rng)
        colors = greedy_color(graph, order)
        offset = positioning_offset(instance, colors)
        commits = {tid: c + offset for tid, c in colors.items()}
        meta = {
            "scheduler": self.name,
            "colors_used": len(set(colors.values())),
            "h_max": graph.h_max,
            "delta": graph.max_degree,
            "gamma": graph.weighted_degree,
            "offset": offset,
        }
        return Schedule(instance, commits, meta)

    @staticmethod
    def color_bound(instance: Instance) -> int:
        """The §2.3 guarantee: greedy uses at most ``Gamma + 1`` colours."""
        graph = DependencyGraph.build(instance)
        return graph.weighted_degree + 1


def _require_clique(network) -> None:
    """Raise :class:`TopologyError` unless ``network`` is a clique."""
    if network.topology.name != "clique":
        raise TopologyError(
            f"CliqueScheduler needs a 'clique' network, got "
            f"{network.topology.name!r}"
        )


class CliqueScheduler(GreedyScheduler):
    """Theorem 1: on a clique, greedy is an ``O(k)`` approximation.

    Identical algorithm to :class:`GreedyScheduler`; adds the theorem's
    makespan bound ``k * ell + 1`` for assertions, and raises
    :class:`~repro.errors.TopologyError` on any other network, where that
    bound does not hold.
    """

    name = "clique"

    def schedule(
        self, instance: Instance, rng: np.random.Generator | None = None
    ) -> Schedule:
        _require_clique(instance.network)
        return super().schedule(instance, rng)

    @staticmethod
    def theorem_bound(instance: Instance) -> int:
        """Thm 1 colour bound ``k * ell + 1`` (unit-weight clique)."""
        return instance.max_k * instance.max_load + 1


class DiameterScheduler(GreedyScheduler):
    """§3.1: greedy on any diameter-``d`` graph (hypercube, butterfly, ...).

    The makespan guarantee scales the clique bound by ``d``:
    ``k * ell * d + 1`` colours, i.e. an ``O(k d)`` approximation against
    the ``chi >= ell`` lower bound.
    """

    name = "diameter"

    @staticmethod
    def theorem_bound(instance: Instance) -> int:
        """§3.1 bound ``k * ell * d + 1``."""
        d = instance.network.diameter()
        return instance.max_k * instance.max_load * max(d, 1) + 1
