"""Unit tests for Transaction and Instance (repro.core model layer)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Instance, Transaction
from repro.errors import InstanceError
from repro.network import clique, line


class TestTransaction:
    def test_fields_normalized(self):
        t = Transaction("3", "5", ["1", 2, 2])
        assert t.tid == 3
        assert t.node == 5
        assert t.objects == frozenset({1, 2})
        assert t.k == 2

    def test_uses(self):
        t = Transaction(0, 0, {4})
        assert t.uses(4)
        assert not t.uses(5)

    def test_rejects_empty_object_set(self):
        with pytest.raises(InstanceError, match=">= 1 object"):
            Transaction(0, 0, [])

    def test_frozen(self):
        t = Transaction(0, 0, {1})
        with pytest.raises(AttributeError):
            t.node = 3

    def test_ordering_by_tid(self):
        assert Transaction(1, 0, {1}) < Transaction(2, 1, {1})

    def test_hashable_and_equal_on_identity_fields(self):
        a = Transaction(1, 0, {1, 2})
        b = Transaction(1, 0, {9})
        # order=True compares (tid, node); objects excluded from compare
        assert a == b
        assert hash(a) is not None


class TestInstanceValidation:
    def test_minimal_instance(self):
        inst = Instance(clique(2), [Transaction(0, 0, {0})], {0: 1})
        assert inst.m == 1
        assert inst.num_objects == 1

    def test_rejects_empty_batch(self):
        with pytest.raises(InstanceError, match="at least one"):
            Instance(clique(2), [], {})

    def test_rejects_duplicate_tid(self):
        with pytest.raises(InstanceError, match="duplicate"):
            Instance(
                clique(3),
                [Transaction(0, 0, {0}), Transaction(0, 1, {0})],
                {0: 0},
            )

    def test_rejects_two_transactions_per_node(self):
        with pytest.raises(InstanceError, match="more than one"):
            Instance(
                clique(3),
                [Transaction(0, 1, {0}), Transaction(1, 1, {0})],
                {0: 0},
            )

    def test_rejects_node_out_of_graph(self):
        with pytest.raises(InstanceError, match="outside graph"):
            Instance(clique(2), [Transaction(0, 7, {0})], {0: 0})

    def test_rejects_homeless_object(self):
        with pytest.raises(InstanceError, match="no home"):
            Instance(clique(2), [Transaction(0, 0, {3})], {0: 0})

    def test_rejects_home_out_of_graph(self):
        with pytest.raises(InstanceError, match="outside graph"):
            Instance(clique(2), [Transaction(0, 0, {0})], {0: 9})

    def test_rejects_more_transactions_than_nodes(self):
        with pytest.raises(InstanceError, match="exceed"):
            Instance(
                clique(1),
                [Transaction(0, 0, {0}), Transaction(1, 0, {0})],
                {0: 0},
            )


def _loop_check(network, transactions, object_homes):
    """The constructor's checks as one per-transaction loop.

    The form the whole-batch checks replaced: the message of the first
    :class:`InstanceError` it would raise, or None for a valid batch.
    """
    homes = {int(o): int(v) for o, v in object_homes.items()}
    txns = tuple(transactions)
    if not txns:
        return "instance must contain at least one transaction"
    if len(txns) > network.n:
        return f"{len(txns)} transactions exceed {network.n} nodes"
    seen_nodes: set = set()
    seen_tids: set = set()
    users: dict = {}
    for t in txns:
        if t.tid in seen_tids:
            return f"duplicate transaction id {t.tid}"
        seen_tids.add(t.tid)
        if not (0 <= t.node < network.n):
            return f"transaction {t.tid} placed at node {t.node} outside graph"
        if t.node in seen_nodes:
            return f"node {t.node} hosts more than one transaction"
        seen_nodes.add(t.node)
        for o in t.objects:
            users.setdefault(o, []).append(t)
    for o in users:
        if o not in homes:
            return f"object {o} has no home node"
    for o, v in homes.items():
        if not (0 <= v < network.n):
            return f"object {o} home {v} outside graph"
    return None


_FAULTS = ("dup_tid", "dup_node", "node_out", "unhomed", "home_out")


@st.composite
def faulty_batches(draw):
    """A valid batch with injected faults, alone, combined or repeated."""
    n = draw(st.integers(min_value=2, max_value=9))
    net = draw(st.sampled_from([clique(n), line(n)]))
    w = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=1, max_value=n))
    nodes = draw(st.permutations(range(n)))[:m]
    tids = draw(st.lists(st.integers(min_value=0, max_value=50),
                         min_size=m, max_size=m, unique=True))
    objs = [
        draw(st.sets(st.integers(min_value=0, max_value=w - 1),
                     min_size=1, max_size=w))
        for _ in range(m)
    ]
    homes = {o: draw(st.integers(min_value=0, max_value=n - 1))
             for o in range(w)}
    at = st.integers(min_value=0, max_value=m - 1)
    obj = st.integers(min_value=0, max_value=w - 1)
    for fault in draw(st.lists(st.sampled_from(_FAULTS), max_size=4)):
        i, j = draw(at), draw(at)
        if fault == "dup_tid":
            tids[j] = tids[i]
        elif fault == "dup_node":
            nodes[j] = nodes[i]
        elif fault == "node_out":
            nodes[j] = draw(st.sampled_from([-1, n, n + 3]))
        elif fault == "unhomed" and draw(st.booleans()):
            objs[j] = objs[j] | {w + draw(st.integers(0, 3))}
        elif fault == "unhomed":
            for o in draw(st.sets(obj, min_size=1)):
                homes.pop(o, None)
        else:
            homes[draw(obj)] = draw(st.sampled_from([-2, n, n + 1]))
    txns = [Transaction(t, v, o) for t, v, o in zip(tids, nodes, objs)]
    return net, txns, homes


_T = Transaction
#: one batch per fault kind on line(3), each the batch's only offence
_SINGLE_FAULTS = {
    "dup_tid": ([_T(4, 0, {0}), _T(4, 1, {1})], {0: 0, 1: 2}),
    "dup_node": ([_T(4, 1, {0}), _T(2, 1, {1})], {0: 0, 1: 2}),
    "node_below": ([_T(4, -1, {0}), _T(2, 1, {1})], {0: 0, 1: 2}),
    "node_above": ([_T(4, 0, {0}), _T(2, 3, {1})], {0: 0, 1: 2}),
    "unhomed": ([_T(4, 0, {0}), _T(2, 1, {5})], {0: 0, 1: 2}),
    "home_below": ([_T(4, 0, {0}), _T(2, 1, {0, 1})], {0: -2, 1: 0}),
    "home_above": ([_T(4, 0, {0}), _T(2, 1, {0, 1})], {0: 0, 1: 3}),
}


class TestConstructorMatchesLoop:
    @pytest.mark.parametrize("fault", sorted(_SINGLE_FAULTS))
    def test_each_single_fault(self, fault):
        txns, homes = _SINGLE_FAULTS[fault]
        expected = _loop_check(line(3), txns, homes)
        assert expected is not None
        with pytest.raises(InstanceError) as err:
            Instance(line(3), txns, homes)
        assert str(err.value) == expected

    @given(faulty_batches())
    @settings(max_examples=300, deadline=None)
    def test_raises_exactly_what_the_loop_raises(self, batch):
        net, txns, homes = batch
        expected = _loop_check(net, txns, homes)
        if expected is None:
            inst = Instance(net, txns, homes)
            assert inst.transactions == tuple(txns)
            assert inst.object_homes == homes
        else:
            with pytest.raises(InstanceError) as err:
                Instance(net, txns, homes)
            assert str(err.value) == expected


class TestInstanceAccessors:
    def make(self):
        txns = [
            Transaction(0, 0, {0, 1}),
            Transaction(1, 1, {1}),
            Transaction(2, 2, {1, 2, 3}),
        ]
        homes = {0: 0, 1: 1, 2: 2, 3: 2, 9: 3}
        return Instance(clique(5), txns, homes)

    def test_objects_sorted_includes_unused(self):
        assert self.make().objects == (0, 1, 2, 3, 9)

    def test_users_and_load(self):
        inst = self.make()
        assert {t.tid for t in inst.users(1)} == {0, 1, 2}
        assert inst.load(1) == 3
        assert inst.load(9) == 0
        assert inst.users(9) == ()

    def test_max_load_and_max_k(self):
        inst = self.make()
        assert inst.max_load == 3
        assert inst.max_k == 3

    def test_paper_m(self):
        inst = self.make()
        assert inst.paper_m == max(5, 5)

    def test_lookup_by_tid_and_node(self):
        inst = self.make()
        assert inst.transaction(2).node == 2
        assert inst.transaction_at(1).tid == 1
        assert inst.transaction_at(4) is None

    def test_homes_at_requesters_true(self):
        # every used object is homed at one of its requesters (unused
        # object 9 does not participate in the check)
        assert self.make().homes_at_requesters is True
        txns = [Transaction(0, 0, {0})]
        inst = Instance(clique(2), txns, {0: 0})
        assert inst.homes_at_requesters is True

    def test_homes_at_requesters_false(self):
        txns = [Transaction(0, 0, {0})]
        inst = Instance(clique(2), txns, {0: 1})
        assert inst.homes_at_requesters is False


class TestRestrict:
    def test_keeps_subset_and_repositions(self):
        txns = [
            Transaction(0, 0, {0}),
            Transaction(1, 1, {0, 1}),
            Transaction(2, 2, {1}),
        ]
        inst = Instance(line(4), txns, {0: 0, 1: 2})
        sub = inst.restrict([1, 2], object_positions={0: 3})
        assert sub.m == 2
        assert sub.home(0) == 3  # overridden
        assert sub.home(1) == 2  # inherited
        assert {t.tid for t in sub.transactions} == {1, 2}

    def test_restrict_drops_unneeded_objects(self):
        txns = [Transaction(0, 0, {0}), Transaction(1, 1, {1})]
        inst = Instance(line(3), txns, {0: 0, 1: 1})
        sub = inst.restrict([0])
        assert sub.objects == (0,)

    def _three(self):
        txns = [
            Transaction(0, 0, {0}),
            Transaction(1, 1, {0, 1}),
            Transaction(2, 2, {1}),
        ]
        return Instance(line(4), txns, {0: 0, 1: 2})

    def test_empty_tid_list_rejected(self):
        with pytest.raises(InstanceError, match="at least one transaction"):
            self._three().restrict([])

    def test_duplicate_tid_rejected(self):
        with pytest.raises(InstanceError, match="duplicate transaction id 1"):
            self._three().restrict([1, 2, 1])

    def test_unknown_tid_raises_key_error(self):
        with pytest.raises(KeyError):
            self._three().restrict([0, 7])

    @pytest.mark.parametrize("node", [-1, 4])
    def test_position_outside_graph_rejected(self, node):
        with pytest.raises(InstanceError, match=f"object 1 home {node} outside"):
            self._three().restrict([1, 2], object_positions={1: node})

    def test_positions_of_unkept_objects_are_not_checked(self):
        sub = self._three().restrict([0], object_positions={1: 99})
        assert sub.object_homes == {0: 0}
