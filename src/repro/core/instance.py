"""Batch scheduling problem instances (§2.1).

An :class:`Instance` bundles a communication graph, a batch of transactions
(at most one per node), and the initial home node of every shared object
(single copy each).  It validates the model constraints at construction and
builds, on first use, the users-per-object index that every scheduler
needs.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, NamedTuple, NoReturn, Sequence

import numpy as np

from ..errors import InstanceError
from ..network.graph import Network
from .transaction import Transaction

__all__ = ["Incidence", "Instance"]


def _reject(
    txns: Sequence[Transaction], homes: Mapping[int, int], n: int
) -> NoReturn:
    """Raise the :class:`InstanceError` that names a batch's first offence.

    :class:`Instance` calls this only for a batch that failed one of its
    whole-batch checks.  The walk goes transaction by transaction
    (duplicate tid, node outside the graph, node already taken), then
    over every used object's home in first-use order, then over every
    home's node, so the first offender in that order is the one named.
    """
    seen_tids: set[int] = set()
    seen_nodes: set[int] = set()
    for t in txns:
        if t.tid in seen_tids:
            raise InstanceError(f"duplicate transaction id {t.tid}")
        seen_tids.add(t.tid)
        if not (0 <= t.node < n):
            raise InstanceError(
                f"transaction {t.tid} placed at node {t.node} outside graph"
            )
        if t.node in seen_nodes:
            raise InstanceError(
                f"node {t.node} hosts more than one transaction"
            )
        seen_nodes.add(t.node)
    for t in txns:
        for o in t.objects:
            if o not in homes:
                raise InstanceError(f"object {o} has no home node")
    for o, v in homes.items():
        if not (0 <= v < n):
            raise InstanceError(f"object {o} home {v} outside graph")
    raise InstanceError("invalid batch")  # unreachable after a failed check


class Incidence(NamedTuple):
    """An instance's (object, transaction) incidence, grouped by object.

    Group ``g`` is the used object ``objects[g]`` (ascending); its users
    are the transaction positions ``txn[indptr[g]:indptr[g + 1]]``
    (indices into :attr:`Instance.transactions`, in the order
    :meth:`Instance.users` lists them).  ``tids`` and ``nodes`` give
    each position's transaction id and host node.  Homed objects no
    transaction uses have no group.
    """

    objects: np.ndarray
    indptr: np.ndarray
    txn: np.ndarray
    tids: np.ndarray
    nodes: np.ndarray

    def per_txn(self, by_tid: Mapping[int, int]) -> np.ndarray:
        """``by_tid``'s value for every transaction position."""
        return np.fromiter(
            map(by_tid.__getitem__, self.tids.tolist()), np.int64,
            len(self.tids),
        )

    def first_users(self, *keys: np.ndarray) -> np.ndarray:
        """Each object's user with the lexicographically smallest ``keys``.

        ``keys`` are arrays over transaction positions, most significant
        first; the result holds one transaction position per group.
        """
        group = np.repeat(np.arange(len(self.objects)), np.diff(self.indptr))
        order = np.lexsort(
            tuple(k[self.txn] for k in reversed(keys)) + (group,)
        )
        return self.txn[order[self.indptr[:-1]]]


class Instance:
    """A validated batch scheduling problem.

    Parameters
    ----------
    network:
        The communication graph ``G``.
    transactions:
        The batch ``T = {T_1..T_m}``; at most one transaction per node, all
        tids unique, every referenced object must have a home.
    object_homes:
        ``object id -> initial node``.  The paper usually assumes each
        object starts at a node whose transaction requests it; this is not
        enforced (schedulers handle arbitrary homes) but
        :attr:`homes_at_requesters` reports whether it holds.
    """

    def __init__(
        self,
        network: Network,
        transactions: Iterable[Transaction],
        object_homes: Mapping[int, int],
    ) -> None:
        self.network = network
        self.transactions: tuple[Transaction, ...] = tuple(transactions)
        self.object_homes: dict[int, int] = {
            int(o): int(v) for o, v in object_homes.items()
        }

        txns = self.transactions
        n = network.n
        if not txns:
            raise InstanceError("instance must contain at least one transaction")
        if len(txns) > n:
            raise InstanceError(f"{len(txns)} transactions exceed {n} nodes")

        # whole-batch checks; only a failing batch is walked, to name its
        # first offender
        nodes = [t.node for t in txns]
        homes = self.object_homes
        where = homes.values()
        if (
            len({t.tid for t in txns}) < len(txns)
            or len(set(nodes)) < len(txns)
            or min(nodes) < 0
            or max(nodes) >= n
            or not homes.keys() >= set().union(*[t.objects for t in txns])
            or min(where, default=0) < 0
            or max(where, default=0) >= n
        ):
            _reject(txns, homes, n)

        self._users: dict[int, tuple[Transaction, ...]] | None = None
        self._incidence: Incidence | None = None

    @classmethod
    def _from_validated(
        cls,
        network: Network,
        transactions: Sequence[Transaction],
        object_homes: dict[int, int],
    ) -> "Instance":
        """Construct without re-running the constructor checks.

        Fast path for callers that already maintain every constructor
        invariant themselves (the
        :class:`~repro.core.incremental.SchedulerSession` validates each
        delta at submit time and every home when it opens, and
        :meth:`restrict` starts from a valid instance): ``transactions``
        non-empty and unique by tid and node, nodes in range,
        ``object_homes`` covering every used object with nodes in range.
        """
        inst = cls.__new__(cls)
        inst.network = network
        inst.transactions = tuple(transactions)
        inst.object_homes = object_homes
        inst._users = None
        inst._incidence = None
        return inst

    @cached_property
    def _by_tid(self) -> dict[int, Transaction]:
        return {t.tid: t for t in self.transactions}

    @cached_property
    def _by_node(self) -> dict[int, Transaction]:
        return {t.node: t for t in self.transactions}

    def _user_index(self) -> dict[int, tuple[Transaction, ...]]:
        if self._users is None:
            users: dict[int, list[Transaction]] = {}
            for t in self.transactions:
                for o in t.objects:
                    users.setdefault(o, []).append(t)
            self._users = {o: tuple(ts) for o, ts in users.items()}
        return self._users

    @property
    def incidence(self) -> Incidence:
        """The (object, transaction) incidence as int arrays (cached).

        The array form of the users-per-object index that the conflict
        graph build, the positioning offset and the phase hand-off read
        instead of looping over :meth:`users` object by object.
        """
        if self._incidence is None:
            txns = self.transactions
            counts = [len(t.objects) for t in txns]
            flat = np.fromiter(
                chain.from_iterable(t.objects for t in txns),
                dtype=np.int64,
                count=sum(counts),
            )
            owner = np.repeat(np.arange(len(txns), dtype=np.int64), counts)
            # stable: users stay in transaction order within each object
            order = np.argsort(flat, kind="stable")
            objs = flat[order]
            head = np.ones(len(objs), dtype=bool)
            np.not_equal(objs[1:], objs[:-1], out=head[1:])
            starts = np.flatnonzero(head)
            self._incidence = Incidence(
                objects=objs[starts],
                indptr=np.append(starts, len(objs)),
                txn=owner[order],
                tids=np.fromiter((t.tid for t in txns), np.int64, len(txns)),
                nodes=np.fromiter((t.node for t in txns), np.int64, len(txns)),
            )
        return self._incidence

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #

    @property
    def m(self) -> int:
        """Number of transactions in the batch."""
        return len(self.transactions)

    @property
    def objects(self) -> tuple[int, ...]:
        """All object ids with a home, sorted."""
        return tuple(sorted(self.object_homes))

    @property
    def num_objects(self) -> int:
        """Number of shared objects ``w``."""
        return len(self.object_homes)

    @property
    def max_k(self) -> int:
        """Largest per-transaction object count ``k``."""
        return int(np.bincount(self.incidence.txn).max())

    @property
    def paper_m(self) -> int:
        """The paper's ``m = max(n, w)`` used in the w.h.p. bounds."""
        return max(self.network.n, self.num_objects)

    def users(self, obj: int) -> tuple[Transaction, ...]:
        """Transactions requesting object ``obj`` (may be empty)."""
        return self._user_index().get(obj, ())

    def load(self, obj: int) -> int:
        """``ell_i``: number of transactions requesting object ``obj``."""
        return len(self._user_index().get(obj, ()))

    @property
    def max_load(self) -> int:
        """``ell = max_i ell_i``: the heaviest object's user count."""
        return max(
            (len(ts) for ts in self._user_index().values()), default=0
        )

    def transaction(self, tid: int) -> Transaction:
        """Lookup by transaction id."""
        return self._by_tid[tid]

    def transaction_at(self, node: int) -> Transaction | None:
        """The transaction hosted at ``node``, or None."""
        return self._by_node.get(node)

    def home(self, obj: int) -> int:
        """Initial node of object ``obj``."""
        return self.object_homes[obj]

    @property
    def homes_at_requesters(self) -> bool:
        """True iff every used object starts at a node that requests it.

        This is the paper's standing assumption for the Line/Grid/§8
        constructions; the schedulers remain correct without it.
        """
        for o, ts in self._user_index().items():
            home = self.object_homes[o]
            if all(t.node != home for t in ts):
                return False
        return True

    def restrict(
        self,
        tids: Sequence[int],
        object_positions: Mapping[int, int] | None = None,
    ) -> "Instance":
        """Sub-instance over a subset of transactions.

        ``object_positions`` overrides homes (used by phased schedulers that
        hand a later phase the objects' *current* locations); only objects
        referenced by the kept transactions need positions.

        A subset of a valid instance keeps every other constructor
        invariant, so only what a restriction can break is checked, and
        raises what the constructor raises: an empty or duplicate tid
        list, an unknown tid (``KeyError``), a position outside the graph.
        """
        keep = [self._by_tid[t] for t in tids]
        needed: set[int] = set()
        for t in keep:
            needed |= t.objects
        pos = object_positions or {}
        homes = {
            o: int(pos[o]) if o in pos else self.object_homes[o]
            for o in needed
        }
        n = self.network.n
        if (
            not keep
            or len({t.tid for t in keep}) < len(keep)
            or not all(0 <= v < n for v in homes.values())
        ):
            # the validating constructor raises its own error for these
            return Instance(self.network, keep, homes)
        return Instance._from_validated(self.network, keep, homes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Instance(n={self.network.n}, m={self.m}, "
            f"w={self.num_objects}, k<={self.max_k})"
        )
