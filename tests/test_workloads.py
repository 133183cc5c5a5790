"""Unit tests for workload generators and seeding."""

import numpy as np
import pytest

from repro.core.line import LineScheduler
from repro.network import clique, cluster, grid, line, star
from repro.workloads import (
    DEFAULT_SEED,
    homes_at_random_requesters,
    hot_object_instance,
    line_span_instance,
    partitioned_instance,
    random_k_subsets,
    root_rng,
    spawn,
    zipf_k_subsets,
)


class TestSeeds:
    def test_root_rng_deterministic(self):
        assert root_rng(1).integers(0, 1000) == root_rng(1).integers(0, 1000)

    def test_root_rng_default_seed(self):
        a = root_rng().integers(0, 10**9)
        b = root_rng(DEFAULT_SEED).integers(0, 10**9)
        assert a == b

    def test_spawn_stable(self):
        a = spawn(3, "exp", 5, "trial").integers(0, 10**9)
        b = spawn(3, "exp", 5, "trial").integers(0, 10**9)
        assert a == b

    def test_spawn_key_sensitivity(self):
        a = spawn(3, "exp", 5).integers(0, 10**9)
        b = spawn(3, "exp", 6).integers(0, 10**9)
        assert a != b

    def test_spawn_order_sensitivity(self):
        a = spawn(3, "a", "b").integers(0, 10**9)
        b = spawn(3, "b", "a").integers(0, 10**9)
        assert a != b


class TestRandomKSubsets:
    def test_shape(self):
        rng = root_rng(0)
        inst = random_k_subsets(clique(10), w=6, k=3, rng=rng)
        assert inst.m == 10
        assert all(t.k == 3 for t in inst.transactions)
        assert inst.num_objects == 6

    def test_homes_at_requesters(self):
        rng = root_rng(1)
        inst = random_k_subsets(clique(10), w=4, k=2, rng=rng)
        assert inst.homes_at_requesters

    def test_density_below_one(self):
        rng = root_rng(2)
        inst = random_k_subsets(clique(20), w=4, k=2, rng=rng, density=0.5)
        assert inst.m == 10

    def test_rejects_bad_k(self):
        rng = root_rng(3)
        with pytest.raises(ValueError):
            random_k_subsets(clique(5), w=3, k=4, rng=rng)
        with pytest.raises(ValueError):
            random_k_subsets(clique(5), w=3, k=0, rng=rng)


class TestZipf:
    def test_skews_toward_low_ids(self):
        rng = root_rng(4)
        inst = zipf_k_subsets(clique(200), w=20, k=1, rng=rng, exponent=1.5)
        assert inst.load(0) > inst.load(19)

    def test_valid_instance(self):
        rng = root_rng(5)
        inst = zipf_k_subsets(clique(30), w=10, k=3, rng=rng)
        assert all(t.k == 3 for t in inst.transactions)


class TestHotObject:
    def test_object_zero_everywhere(self):
        rng = root_rng(6)
        inst = hot_object_instance(clique(12), w=6, k=3, rng=rng)
        assert inst.load(0) == 12
        assert all(0 in t.objects for t in inst.transactions)

    def test_k_one_only_hot(self):
        rng = root_rng(7)
        inst = hot_object_instance(clique(5), w=3, k=1, rng=rng)
        assert all(t.objects == frozenset({0}) for t in inst.transactions)


class TestPartitioned:
    def test_fully_local_stays_in_group(self):
        net = cluster(3, 4)
        groups = net.topology.require("clusters")
        rng = root_rng(8)
        inst = partitioned_instance(
            net, groups, objects_per_group=3, k=2, cross_fraction=0.0, rng=rng
        )
        for g, members in enumerate(groups):
            pool = set(range(g * 3, (g + 1) * 3))
            for node in members:
                t = inst.transaction_at(node)
                assert t.objects <= pool

    def test_cross_fraction_validated(self):
        net = cluster(2, 3)
        groups = net.topology.require("clusters")
        with pytest.raises(ValueError):
            partitioned_instance(net, groups, 2, 2, 1.5, root_rng(9))

    def test_k_capped_by_pool(self):
        net = cluster(2, 3)
        groups = net.topology.require("clusters")
        with pytest.raises(ValueError):
            partitioned_instance(net, groups, 2, 3, 0.0, root_rng(10))

    def test_on_star_rays(self):
        net = star(4, 6)
        rays = net.topology.require("rays")
        inst = partitioned_instance(
            net, rays, objects_per_group=3, k=2, cross_fraction=0.2,
            rng=root_rng(11),
        )
        # the center hosts no transaction in this workload
        assert inst.transaction_at(0) is None
        assert inst.m == 24


class TestLineSpan:
    def test_controls_ell(self):
        # w * max_span covers the line, so every requester span stays
        # within the window and ell <= 1.5 * max_span
        net = line(60)
        rng = root_rng(12)
        inst = line_span_instance(net, w=12, k=2, max_span=5, rng=rng)
        for obj in inst.objects:
            users = inst.users(obj)
            if users:
                nodes = [t.node for t in users]
                assert max(nodes) - min(nodes) <= 5
        assert LineScheduler.ell(inst) <= 8  # 1.5 * 5 rounded up

    def test_sparse_windows_stretch_to_cover(self):
        # too few objects to honour max_span: windows stretch to ceil(n/w)
        net = line(60)
        inst = line_span_instance(net, w=4, k=1, max_span=2, rng=root_rng(15))
        for obj in inst.objects:
            users = inst.users(obj)
            if users:
                nodes = [t.node for t in users]
                assert max(nodes) - min(nodes) <= 15

    def test_rejects_negative_span(self):
        with pytest.raises(ValueError):
            line_span_instance(line(10), 2, 1, -1, root_rng(13))


class TestHomes:
    def test_homes_pick_requesters(self):
        from repro.core import Transaction

        txns = [Transaction(0, 3, {0}), Transaction(1, 5, {0})]
        homes = homes_at_random_requesters(txns, 2, root_rng(14))
        assert homes[0] in (3, 5)
        assert homes[1] == 0  # unused -> fallback node


class TestGeneratorSeedDeterminism:
    """Every generator is a pure function of its seeded rng."""

    @staticmethod
    def _same(a, b):
        assert a.transactions == b.transactions
        assert a.object_homes == b.object_homes

    def _pair(self, build):
        return build(root_rng(77)), build(root_rng(77))

    def test_random_k_subsets(self):
        net = clique(10)
        self._same(*self._pair(lambda r: random_k_subsets(net, 8, 2, r)))

    def test_zipf_k_subsets(self):
        net = clique(10)
        self._same(*self._pair(lambda r: zipf_k_subsets(net, 8, 2, r)))

    def test_hot_object_instance(self):
        net = clique(10)
        self._same(*self._pair(lambda r: hot_object_instance(net, 8, 3, r)))

    def test_partitioned_instance(self):
        net = cluster(3, 4)
        groups = [range(4), range(4, 8), range(8, 12)]
        self._same(*self._pair(
            lambda r: partitioned_instance(net, groups, 3, 2, 0.25, r)
        ))

    def test_line_span_instance(self):
        net = line(12)
        self._same(*self._pair(
            lambda r: line_span_instance(net, 6, 2, 3, r)
        ))

    def test_homes_at_random_requesters(self):
        from repro.core import Transaction

        txns = [Transaction(0, 3, {0, 1}), Transaction(1, 5, {0})]
        h1 = homes_at_random_requesters(txns, 3, root_rng(21))
        h2 = homes_at_random_requesters(txns, 3, root_rng(21))
        assert h1 == h2


class TestArrivalStreams:
    def _nets(self):
        return clique(8)

    def test_poisson_stream_deterministic(self):
        from repro.workloads import PoissonStream

        net = self._nets()
        a = PoissonStream(net, w=6, k=2, rate=0.8, rng=spawn(5, "p"))
        b = PoissonStream(net, w=6, k=2, rate=0.8, rng=spawn(5, "p"))
        assert a.object_homes == b.object_homes
        assert a.window(0, 40) == b.window(0, 40)

    def test_mmpp_stream_deterministic_and_bursty(self):
        from repro.workloads import MMPPStream

        net = self._nets()
        mk = lambda: MMPPStream(net, w=6, k=2, rate_low=0.1, rate_high=3.0,
                                switch=0.05, rng=spawn(5, "m"))
        a, b = mk(), mk()
        assert a.window(0, 120) == b.window(0, 120)

    def test_adversarial_stream_deterministic(self):
        from repro.workloads import AdversarialStream

        net = self._nets()
        mk = lambda: AdversarialStream(net, w=6, k=2, rho=0.5, burst=3,
                                       rng=spawn(5, "a"))
        a, b = mk(), mk()
        assert a.window(0, 60) == b.window(0, 60)

    def test_adversarial_rho_b_bound(self):
        from repro.workloads import AdversarialStream

        net = self._nets()
        s = AdversarialStream(net, w=6, k=2, rho=0.7, burst=5,
                              rng=spawn(5, "bound"))
        times = [a.release for a in s.window(0, 100)]
        assert times, "adversary must inject something"
        # (rho, b)-bounded: every interval I carries <= rho*|I| + b
        for i in range(len(times)):
            for j in range(i, len(times)):
                span = times[j] - times[i] + 1
                assert (j - i + 1) <= 0.7 * span + 5 + 1e-9

    def test_adversarial_maximizes_contention(self):
        from repro.workloads import AdversarialStream

        net = self._nets()
        s = AdversarialStream(net, w=6, k=2, rho=0.5, burst=4,
                              rng=spawn(5, "hot"))
        arrivals = s.window(0, 40)
        assert all(0 in a.txn.objects for a in arrivals)  # hot object

    def test_windows_must_be_contiguous(self):
        from repro.errors import InstanceError
        from repro.workloads import PoissonStream

        s = PoissonStream(self._nets(), w=6, k=2, rate=1.0,
                          rng=spawn(5, "c"))
        s.window(0, 10)
        with pytest.raises(InstanceError, match="contiguous"):
            s.window(20, 30)

    def test_limit_and_take(self):
        from repro.workloads import PoissonStream

        s = PoissonStream(self._nets(), w=6, k=2, rate=1.0,
                          rng=spawn(5, "t"), limit=7)
        got = s.take(100)
        assert len(got) == 7
        assert s.exhausted
        assert [a.txn.tid for a in got] == list(range(7))

    def test_consecutive_takes_lose_no_arrival(self):
        # take draws whole steps, so it hands out all of its last step's
        # arrivals: the next take starts at the next tid
        from repro.workloads import PoissonStream

        s = PoissonStream(grid(3), w=8, k=2, rate=2.0, rng=spawn(1, "x"))
        tids = []
        for _ in range(20):
            got = s.take(3)
            assert len(got) >= 3
            tids += [a.txn.tid for a in got]
            assert s.released == len(tids)
        assert tids == list(range(len(tids)))

    def test_stream_validation(self):
        from repro.errors import InstanceError
        from repro.workloads import MMPPStream, PoissonStream

        net = self._nets()
        with pytest.raises(InstanceError):
            PoissonStream(net, w=2, k=5, rate=1.0, rng=spawn(5, "v"))
        with pytest.raises(InstanceError):
            PoissonStream(net, w=4, k=2, rate=0.0, rng=spawn(5, "v"))
        with pytest.raises(InstanceError):
            MMPPStream(net, w=4, k=2, rate_low=2.0, rate_high=1.0,
                       switch=0.5, rng=spawn(5, "v"))
