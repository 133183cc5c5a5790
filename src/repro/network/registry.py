"""The topology registry: one :class:`TopologyInfo` per network family.

Each entry names a topology family, its constructor, its parameter
schema (with defaults and per-parameter docs), and the scheduler that
``algo="auto"`` routes it to.  ``default_algo`` is the one topology →
scheduler routing; the scheduler it names is a row of the scheduler
table (``SCHEDULER_INFO`` in :mod:`repro.core.dispatch`).

:func:`make_network` is the uniform construction facade --
``repro.make_network("shard-cluster", shards=4, shard_size=6)`` -- and
:func:`network_from_sizes` adapts the CLI's positional ``--size`` /
``--size2`` convention onto the same registry, so the CLI, the cluster
workers, and the experiments all dispatch off one table instead of
hard-coded builder dicts.  Direct constructor imports
(``repro.network.clique`` etc.) keep working; they are the factories
the registry points at.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

from ..errors import GraphError
from .graph import Network
from .sharding import fog_hierarchy, shard_cluster
from .topologies import (
    butterfly,
    clique,
    cluster,
    ddim_grid,
    grid,
    hypercube,
    line,
    lower_bound_grid,
    lower_bound_tree,
    star,
    torus,
)

__all__ = [
    "TopologyParam",
    "TopologyInfo",
    "TOPOLOGY_INFO",
    "make_network",
    "network_from_sizes",
    "topology_names",
]

_REQUIRED = object()


@dataclass(frozen=True)
class TopologyParam:
    """Schema entry for one constructor parameter.

    ``default`` is the value substituted when the caller omits the
    parameter; the ``_REQUIRED`` sentinel marks parameters the caller
    must supply (reported as a :class:`~repro.errors.GraphError`).
    """

    name: str
    doc: str
    default: object = _REQUIRED

    @property
    def required(self) -> bool:
        """True iff the caller must supply this parameter."""
        return self.default is _REQUIRED


@dataclass(frozen=True)
class TopologyInfo:
    """Static metadata describing one topology family.

    ``default_algo`` names the :data:`~repro.core.dispatch.SCHEDULER_INFO`
    row that ``algo="auto"`` dispatch routes this family to; ``sizes``
    adapts the CLI's ``(size, size2)`` convention to constructor keywords
    (see :func:`network_from_sizes`).
    """

    name: str
    doc: str
    params: Tuple[TopologyParam, ...]
    factory: Callable[..., Network]
    default_algo: str
    sizes: Callable[[int, Optional[int]], Dict[str, object]] = field(
        repr=False, default=lambda size, size2: {"n": size}
    )

    def make(self, **params) -> Network:
        """Instantiate the family, validating names and filling defaults."""
        known = {p.name for p in self.params}
        unknown = sorted(set(params) - known)
        if unknown:
            raise GraphError(
                f"unknown parameter(s) {unknown} for topology "
                f"{self.name!r}; expected {sorted(known)}"
            )
        kwargs = dict(params)
        missing = []
        for p in self.params:
            if p.name in kwargs:
                continue
            if p.required:
                missing.append(p.name)
            else:
                kwargs[p.name] = p.default
        if missing:
            raise GraphError(
                f"topology {self.name!r} requires parameter(s) {missing}"
            )
        net = self.factory(**kwargs)
        if net.topology.name != self.name:
            raise GraphError(
                f"topology registry drift: factory for {self.name!r} built "
                f"a network tagged {net.topology.name!r}"
            )
        return net


TOPOLOGY_INFO: Mapping[str, TopologyInfo] = {
    info.name: info
    for info in (
        TopologyInfo(
            "clique",
            "complete graph, unit weights (§3)",
            (TopologyParam("n", "number of nodes"),),
            clique,
            "clique",
            lambda size, size2: {"n": size},
        ),
        TopologyInfo(
            "line",
            "path graph, unit weights (§4)",
            (TopologyParam("n", "number of nodes"),),
            line,
            "line",
            lambda size, size2: {"n": size},
        ),
        TopologyInfo(
            "grid",
            "rows x cols mesh, unit weights (§5)",
            (
                TopologyParam("rows", "grid rows"),
                TopologyParam("cols", "grid cols (default: rows)", None),
            ),
            grid,
            "grid",
            lambda size, size2: {"rows": size, "cols": size2},
        ),
        TopologyInfo(
            "cluster",
            "alpha cliques of beta nodes, bridge weight gamma (§6)",
            (
                TopologyParam("alpha", "number of cliques"),
                TopologyParam("beta", "nodes per clique"),
                TopologyParam("gamma", "bridge weight (default: beta)", None),
            ),
            cluster,
            "cluster",
            lambda size, size2: {"alpha": size, "beta": size2 or 4},
        ),
        TopologyInfo(
            "hypercube",
            "2^dim nodes, unit weights (§3.1)",
            (TopologyParam("dim", "hypercube dimension"),),
            hypercube,
            "diameter",
            lambda size, size2: {"dim": size},
        ),
        TopologyInfo(
            "butterfly",
            "(dim+1) * 2^dim unwrapped butterfly (§3.1)",
            (TopologyParam("dim", "butterfly dimension"),),
            butterfly,
            "diameter",
            lambda size, size2: {"dim": size},
        ),
        TopologyInfo(
            "star",
            "alpha rays of beta nodes around a center (§7)",
            (
                TopologyParam("alpha", "number of rays"),
                TopologyParam("beta", "nodes per ray"),
            ),
            star,
            "star",
            lambda size, size2: {"alpha": size, "beta": size2 or 7},
        ),
        TopologyInfo(
            "torus",
            "rows x cols wraparound mesh, unit weights (§3.1)",
            (
                TopologyParam("rows", "torus rows (>= 3)"),
                TopologyParam("cols", "torus cols (default: rows)", None),
            ),
            torus,
            "diameter",
            lambda size, size2: {"rows": size, "cols": size2},
        ),
        TopologyInfo(
            "ddim-grid",
            "general d-dimensional mesh, unit weights (§3.1)",
            (TopologyParam("dims", "side length per axis (sequence)"),),
            ddim_grid,
            "diameter",
            lambda size, size2: {
                "dims": (size, size2) if size2 else (size, size)
            },
        ),
        TopologyInfo(
            "lb-grid",
            "the §8.1 grid-of-blocks lower-bound substrate",
            (TopologyParam("s", "block count (sqrt(s) integral)"),),
            lower_bound_grid,
            "greedy",
            lambda size, size2: {"s": size},
        ),
        TopologyInfo(
            "lb-tree",
            "the §8.2 tree-of-blocks lower-bound substrate",
            (TopologyParam("s", "block count (sqrt(s) integral)"),),
            lower_bound_tree,
            "greedy",
            lambda size, size2: {"s": size},
        ),
        TopologyInfo(
            "shard-cluster",
            "blockchain shard committees: cliques + leader mesh "
            "(arXiv:2405.15015)",
            (
                TopologyParam("shards", "number of shard committees"),
                TopologyParam("shard_size", "nodes per shard"),
                TopologyParam(
                    "gamma", "inter-shard leader-link weight "
                    "(default: shard_size)", None,
                ),
            ),
            shard_cluster,
            "sharded",
            lambda size, size2: {"shards": size, "shard_size": size2 or 4},
        ),
        TopologyInfo(
            "fog-hierarchy",
            "cloud/fog/edge tree of shard committees (arXiv:2511.09776)",
            (
                TopologyParam("tiers", "hierarchy depth (cloud = tier 0)"),
                TopologyParam("fanout", "children per shard", 2),
                TopologyParam("shard_size", "nodes per shard", 4),
                TopologyParam(
                    "gamma", "base uplink weight, scaled by tier "
                    "(default: shard_size)", None,
                ),
            ),
            fog_hierarchy,
            "sharded",
            lambda size, size2: {"tiers": size, "shard_size": size2 or 4},
        ),
    )
}


def topology_names() -> Tuple[str, ...]:
    """Registered family names, in registry order."""
    return tuple(TOPOLOGY_INFO)


def make_network(name: str, **params) -> Network:
    """Build a registered topology by family name.

    The uniform construction facade: validates the family name and the
    parameter names against the registry schema, fills defaults, and
    calls the family constructor.  ``repro.make_network("grid", rows=8)``
    is equivalent to ``repro.network.grid(8)``.
    """
    try:
        info = TOPOLOGY_INFO[name]
    except KeyError:
        raise GraphError(
            f"unknown topology {name!r}; choose from "
            f"{sorted(TOPOLOGY_INFO)}"
        ) from None
    return info.make(**params)


def network_from_sizes(
    name: str, size: int, size2: Optional[int] = None
) -> Network:
    """Build a registered topology from CLI-style size parameters.

    ``size`` is n / side / dim / alpha / shards / tiers depending on the
    family; ``size2`` is cols / beta / shard size where applicable.
    Each registry entry's ``sizes`` adapter maps the pair onto the
    constructor's keywords, preserving the historical CLI defaults
    (e.g. ``cluster`` falls back to ``beta=4``, ``star`` to ``beta=7``).
    """
    try:
        info = TOPOLOGY_INFO[name]
    except KeyError:
        raise GraphError(
            f"unknown topology {name!r}; choose from "
            f"{sorted(TOPOLOGY_INFO)}"
        ) from None
    return info.make(**info.sizes(size, size2))
