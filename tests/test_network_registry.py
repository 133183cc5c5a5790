"""Tests for the topology registry (repro.network.registry).

The registry is the single dispatch table for topology construction:
``make_network`` must round-trip every entry, the CLI ``sizes`` adapters
must agree with the legacy positional convention, and the registry must
stay consistent with the scheduler table (every ``default_algo``
resolves, and auto-dispatch follows it).
"""

from __future__ import annotations

import pytest

import repro
from repro.errors import GraphError, ReproError
from repro.network import (
    TOPOLOGY_INFO,
    clique,
    cluster,
    grid,
    make_network,
    network_from_sizes,
    shard_cluster,
    topology_names,
)

# one valid kwargs sample per registered family, exercising every
# required parameter (defaults cover the rest)
SAMPLE_PARAMS = {
    "clique": {"n": 6},
    "line": {"n": 5},
    "grid": {"rows": 3},
    "cluster": {"alpha": 3, "beta": 4},
    "hypercube": {"dim": 3},
    "butterfly": {"dim": 2},
    "star": {"alpha": 3, "beta": 2},
    "torus": {"rows": 3},
    "ddim-grid": {"dims": (2, 3)},
    "lb-grid": {"s": 4},
    "lb-tree": {"s": 4},
    "shard-cluster": {"shards": 3, "shard_size": 4},
    "fog-hierarchy": {"tiers": 2},
}

# (size, size2) sample per family for the CLI adapter
SAMPLE_SIZES = {
    "clique": (6, None),
    "line": (5, None),
    "grid": (3, 4),
    "cluster": (3, 4),
    "hypercube": (3, None),
    "butterfly": (2, None),
    "star": (3, 2),
    "torus": (3, 4),
    "ddim-grid": (2, 3),
    "lb-grid": (4, None),
    "lb-tree": (4, None),
    "shard-cluster": (3, 4),
    "fog-hierarchy": (2, 4),
}


class TestMakeNetwork:
    def test_round_trips_every_registered_family(self):
        assert set(SAMPLE_PARAMS) == set(TOPOLOGY_INFO)
        for name, params in SAMPLE_PARAMS.items():
            net = make_network(name, **params)
            assert net.topology.name == name
            assert net.n >= 1

    def test_sizes_adapter_covers_every_family(self):
        assert set(SAMPLE_SIZES) == set(TOPOLOGY_INFO)
        for name, (size, size2) in SAMPLE_SIZES.items():
            net = network_from_sizes(name, size, size2)
            assert net.topology.name == name

    def test_matches_direct_builders(self):
        for a, b in [
            (make_network("clique", n=8), clique(8)),
            (make_network("grid", rows=3, cols=5), grid(3, 5)),
            (make_network("cluster", alpha=3, beta=4), cluster(3, 4)),
            (
                make_network("shard-cluster", shards=3, shard_size=4),
                shard_cluster(3, 4),
            ),
        ]:
            assert a.topology == b.topology
            assert a.n == b.n

    def test_cli_size_convention_preserved(self):
        # the historical CLI defaults must survive the registry migration
        assert network_from_sizes("cluster", 3, None).topology.params["beta"] == 4
        assert network_from_sizes("star", 3, None).topology.params["beta"] == 7
        assert network_from_sizes("ddim-grid", 3, None).n == 9
        assert (
            network_from_sizes("shard-cluster", 3, None)
            .topology.params["shard_size"]
            == 4
        )

    def test_unknown_topology(self):
        with pytest.raises(GraphError, match="unknown topology"):
            make_network("moebius")
        with pytest.raises(GraphError, match="unknown topology"):
            network_from_sizes("moebius", 4)
        # GraphError subclasses ReproError, so legacy handlers still catch
        with pytest.raises(ReproError, match="unknown topology"):
            make_network("moebius")

    def test_unknown_parameter(self):
        with pytest.raises(GraphError, match="unknown parameter"):
            make_network("clique", n=4, twist=True)

    def test_missing_required_parameter(self):
        with pytest.raises(GraphError, match="requires parameter"):
            make_network("cluster", alpha=3)

    def test_defaults_filled(self):
        net = make_network("fog-hierarchy", tiers=2)
        assert net.topology.params["fanout"] == 2
        assert net.topology.params["shard_size"] == 4

    def test_topology_names_order(self):
        assert topology_names() == tuple(TOPOLOGY_INFO)
        assert "shard-cluster" in topology_names()
        assert "fog-hierarchy" in topology_names()


class TestFacadeExports:
    def test_repro_make_network(self):
        net = repro.make_network("shard-cluster", shards=2, shard_size=3)
        assert net.topology.name == "shard-cluster"

    def test_public_names(self):
        assert hasattr(repro, "TOPOLOGY_INFO")
        assert repro.TOPOLOGY_INFO is TOPOLOGY_INFO


class TestSchedulerRegistryConsistency:
    def test_every_default_algo_resolves(self):
        from repro.core.dispatch import SCHEDULER_INFO

        for info in TOPOLOGY_INFO.values():
            assert info.default_algo in SCHEDULER_INFO, info.name

    def test_auto_dispatch_table_derived_from_registry(self):
        from repro.core.dispatch import resolve_scheduler

        for name, info in TOPOLOGY_INFO.items():
            assert resolve_scheduler(topology=name).name == info.default_algo
        assert resolve_scheduler(topology="moebius").name == "greedy"
        assert resolve_scheduler().name == "greedy"

    def test_param_schema_well_formed(self):
        for info in TOPOLOGY_INFO.values():
            assert info.doc
            names = [p.name for p in info.params]
            assert len(names) == len(set(names))
            for p in info.params:
                assert p.doc
