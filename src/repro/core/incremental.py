"""Incremental scheduling engine behind the stateful session API.

The offline schedulers rebuild the conflict graph ``H`` and recolor from
scratch on every batch.  This module maintains ``H`` *under deltas*: a
per-object inverted index finds the conflict neighborhood of an arriving
transaction, a :class:`DistanceMemo` caches every
``Network.pair_distances`` gather across epochs keyed by unordered
``(src, dst)`` node pairs, and a bounded repair frontier recolors only
the dirty neighborhoods a delta invalidates (falling back to a full
recolor of the live window when the frontier exceeds a threshold).

The load-bearing invariant is that the batch greedy colouring of §2.3,
run in ascending-tid order, is a *canonical fixpoint*: each vertex's
slot is the minimum excludant of its smaller-tid neighbours' slots,

    ``slot(v) = mex{ slot(u) : u in N(v), u < v }``

so a vertex's colour never depends on larger-tid vertices.  Any delta
therefore dirties only the *higher*-tid side of the touched
neighbourhood, and repairing dirty vertices in ascending tid order
converges to exactly the schedule the batch scheduler would produce on
the equivalent static instance -- regardless of submission order.  That
is what makes the session's ``current_schedule()`` bit-identical to
``repro.schedule()`` (the parity property tests assert it field by
field) while each delta costs ``O(|frontier| * Delta)`` instead of the
batch ``O(m * Delta)`` rebuild.

Public surface:

* :class:`SchedulerSession` -- the stateful session with ``submit`` /
  ``commit`` / ``abort`` / ``current_schedule`` / ``snapshot``;
* :func:`open_session` -- the facade constructor re-exported as
  ``repro.open_session(network)``;
* :class:`IncrementalConflictGraph` / :class:`DistanceMemo` -- the
  engine pieces, exposed for tests and benchmarks.

One-shot scheduling never comes here: :func:`repro.schedule` and the
service's fault-free windows call the scheduler directly.  Sessions are
for rolling windows, where the engine carries state from one delta to
the next.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..errors import SessionError
from ..obs.events import SessionDeltaEvent
from ..obs.recorder import Recorder, active
from .greedy import _require_clique
from .instance import Instance
from .schedule import Schedule
from .scheduler import Scheduler
from .transaction import Transaction

__all__ = [
    "GREEDY_FAMILY",
    "DistanceMemo",
    "IncrementalConflictGraph",
    "SchedulerSession",
    "open_session",
]

#: scheduler names the incremental engine can maintain: they all run the
#: identical §2.3 greedy colouring (clique / diameter merely attach
#: different theorem bounds), so the mex fixpoint above applies.
GREEDY_FAMILY: Tuple[str, ...] = ("greedy", "clique", "diameter")

_HOME_POLICIES = ("static", "follow")

#: repair frontiers never fall back to a full recolor below this many
#: examined vertices, whatever the threshold says -- tiny windows are
#: cheaper to repair than to rebuild.
_MIN_FRONTIER = 16
#: fraction of the live window a repair frontier may examine before the
#: engine recolors the whole window instead
_REBUILD_THRESHOLD = 0.5


class DistanceMemo:
    """Shortest-path distances memoized across epochs by node pair.

    The vectorized batch builder pays one ``Network.pair_distances``
    gather per rebuild; a long-lived session sees the same (src, dst)
    pairs over and over as transactions on the same nodes conflict in
    window after window.  The memo keys on the unordered pair, serves
    repeats from the cache, and gathers only the misses in a single
    vectorized call.
    """

    def __init__(self, network) -> None:
        self.network = network
        self._cache: Dict[Tuple[int, int], int] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._cache)

    def pair_distances(self, us: List[int], vs: List[int]) -> List[int]:
        """Memoized ``network.pair_distances`` gather (misses batched)."""
        out: List[int] = [0] * len(us)
        miss: List[int] = []
        for i, (u, v) in enumerate(zip(us, vs)):
            key = (u, v) if u <= v else (v, u)
            d = self._cache.get(key)
            if d is None:
                miss.append(i)
            else:
                self.hits += 1
                out[i] = d
        if miss:
            self.misses += len(miss)
            mu = np.asarray([us[i] for i in miss], dtype=np.int64)
            mv = np.asarray([vs[i] for i in miss], dtype=np.int64)
            ds = self.network.pair_distances(mu, mv)
            for i, d in zip(miss, ds.tolist()):
                u, v = us[i], vs[i]
                key = (u, v) if u <= v else (v, u)
                self._cache[key] = int(d)
                out[i] = int(d)
        return out

    def stats(self) -> Dict[str, int]:
        """``{"hits", "misses", "size"}`` counters (JSON-safe)."""
        return {"hits": self.hits, "misses": self.misses, "size": len(self)}


class IncrementalConflictGraph:
    """The conflict graph ``H`` maintained under transaction deltas.

    Keeps, for the live transaction set: the per-object inverted index
    (object -> user tids), the weighted adjacency, the greedy colour
    *slots* (the colour is derived as ``slot * h_max + 1`` on read, so a
    changing ``h_max`` never invalidates stored state), and the edge
    weight multiset backing an O(1)-amortized ``h_max``.

    ``add`` / ``remove`` return ``(examined, changed, rebuilt)`` repair
    statistics; the invariant after every delta is that slots equal the
    batch greedy colouring of the live set in ascending-tid order.
    """

    def __init__(self, network) -> None:
        self.memo = DistanceMemo(network)
        self._txn: Dict[int, Transaction] = {}
        self._node_tid: Dict[int, int] = {}
        self._obj_users: Dict[int, Set[int]] = {}
        self._adj: Dict[int, Dict[int, int]] = {}
        self._slot: Dict[int, int] = {}
        self._wcount: Dict[int, int] = {}
        self._hraw = 0
        # refcount mirrors of the derived quantities, so reads stay O(1)
        # amortized instead of rescanning the live window per epoch
        self._slot_count: Dict[int, int] = {}
        self._degcount: Dict[int, int] = {}
        self._degmax = 0
        # objects whose positioning need may have changed since the last
        # drain (slot moved, user set changed); an h_max change, which
        # shifts every colour at once, sets the all-dirty flag instead
        self._dirty_objs: Set[int] = set()
        self._all_dirty = True
        self.repairs_examined = 0
        self.repairs_changed = 0
        self.full_rebuilds = 0

    # ------------------------------------------------------------------ #
    # read surface (mirrors DependencyGraph's quantities)
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._txn)

    def __contains__(self, tid: int) -> bool:
        return tid in self._txn

    @property
    def h_max(self) -> int:
        """Maximum live conflict-edge weight (1 if there are no edges)."""
        return max(self._hraw, 1)

    @property
    def max_degree(self) -> int:
        """``Delta`` over the live set."""
        return self._degmax

    @property
    def weighted_degree(self) -> int:
        """``Gamma = h_max * Delta`` over the live set."""
        return self.h_max * self.max_degree

    @property
    def colors_used(self) -> int:
        """Distinct colours in the current colouring."""
        return len(self._slot_count)

    def tids(self) -> List[int]:
        """Live transaction ids, ascending."""
        return sorted(self._txn)

    def transaction(self, tid: int) -> Transaction:
        """The live transaction with id ``tid``."""
        return self._txn[tid]

    def color(self, tid: int) -> int:
        """Current colour (= uncorrected commit step) of a live tid."""
        return self._slot[tid] * self.h_max + 1

    def slots(self) -> Dict[int, int]:
        """``tid -> slot`` copy of the current colouring."""
        return dict(self._slot)

    # ------------------------------------------------------------------ #
    # refcount maintenance
    # ------------------------------------------------------------------ #

    def _set_slot(self, tid: int, j: int) -> bool:
        """Write a slot through the colour refcount; True if it changed."""
        old = self._slot.get(tid)
        if old == j:
            return False
        if old is not None:
            count = self._slot_count[old] - 1
            if count:
                self._slot_count[old] = count
            else:
                del self._slot_count[old]
        self._slot[tid] = j
        self._slot_count[j] = self._slot_count.get(j, 0) + 1
        self._dirty_objs.update(self._txn[tid].objects)
        return True

    def _del_slot(self, tid: int) -> None:
        old = self._slot.pop(tid)
        count = self._slot_count[old] - 1
        if count:
            self._slot_count[old] = count
        else:
            del self._slot_count[old]

    def _deg_change(self, old: Optional[int], new: Optional[int]) -> None:
        """Move one vertex between degree buckets (None = absent)."""
        if old == new:
            return
        if new is not None:
            self._degcount[new] = self._degcount.get(new, 0) + 1
            if new > self._degmax:
                self._degmax = new
        if old is not None:
            count = self._degcount[old] - 1
            if count:
                self._degcount[old] = count
            else:
                del self._degcount[old]
                if old == self._degmax:
                    self._degmax = max(self._degcount) if self._degcount else 0

    def mark_objects_dirty(self, objs: Iterable[int]) -> None:
        """Invalidate cached positioning needs (e.g. after a home move)."""
        self._dirty_objs.update(objs)

    def drain_dirty_objects(self) -> Tuple[Set[int], bool]:
        """Objects dirtied since the last drain, plus the all-dirty flag."""
        dirty, all_dirty = self._dirty_objs, self._all_dirty
        self._dirty_objs = set()
        self._all_dirty = False
        return dirty, all_dirty

    # ------------------------------------------------------------------ #
    # deltas
    # ------------------------------------------------------------------ #

    def add(self, txn: Transaction) -> Tuple[int, int, bool]:
        """Insert a transaction; repair the dirtied neighbourhood.

        Returns ``(examined, changed, rebuilt)`` repair statistics.  The
        caller is responsible for admission checks (unique tid, free
        node); this engine assumes them.
        """
        tid = txn.tid
        nbrs: Set[int] = set()
        for obj in sorted(txn.objects):
            nbrs.update(self._obj_users.get(obj, ()))
        nbr_list = sorted(nbrs)
        if nbr_list:
            ws = self.memo.pair_distances(
                [txn.node] * len(nbr_list),
                [self._txn[u].node for u in nbr_list],
            )
        else:
            ws = []
        self._txn[tid] = txn
        self._node_tid[txn.node] = tid
        for obj in sorted(txn.objects):
            self._obj_users.setdefault(obj, set()).add(tid)
        h_before = self.h_max
        row: Dict[int, int] = {}
        for u, w in zip(nbr_list, ws):
            row[u] = w
            adj_u = self._adj[u]
            self._deg_change(len(adj_u), len(adj_u) + 1)
            adj_u[tid] = w
            self._wcount[w] = self._wcount.get(w, 0) + 1
            if w > self._hraw:
                self._hraw = w
        self._adj[tid] = row
        self._deg_change(None, len(row))
        if self.h_max != h_before:
            self._all_dirty = True
        # the new vertex's own slot depends only on smaller-tid
        # neighbours, none of whom a pure insertion can change
        self._set_slot(tid, self._mex(tid))
        return self._repair([u for u in nbr_list if u > tid])

    def remove(self, tid: int) -> Tuple[int, int, bool]:
        """Remove a live transaction (commit or abort); repair the hole."""
        txn = self._txn.pop(tid)
        del self._node_tid[txn.node]
        for obj in sorted(txn.objects):
            users = self._obj_users[obj]
            users.discard(tid)
            if not users:
                del self._obj_users[obj]
        self._dirty_objs.update(txn.objects)
        h_before = self.h_max
        nbrs = self._adj.pop(tid)
        self._deg_change(len(nbrs), None)
        hole_in_max = False
        for u, w in nbrs.items():
            adj_u = self._adj[u]
            self._deg_change(len(adj_u), len(adj_u) - 1)
            del adj_u[tid]
            count = self._wcount[w] - 1
            if count:
                self._wcount[w] = count
            else:
                del self._wcount[w]
                if w == self._hraw:
                    hole_in_max = True
        if hole_in_max:
            self._hraw = max(self._wcount) if self._wcount else 0
        if self.h_max != h_before:
            self._all_dirty = True
        self._del_slot(tid)
        return self._repair([u for u in nbrs if u > tid])

    # ------------------------------------------------------------------ #
    # repair frontier
    # ------------------------------------------------------------------ #

    def _mex(self, tid: int) -> int:
        """Minimum excludant over the smaller-tid neighbours' slots."""
        used = {self._slot[u] for u in self._adj[tid] if u < tid}
        j = 0
        while j in used:
            j += 1
        return j

    def _repair(self, dirty: List[int]) -> Tuple[int, int, bool]:
        """Re-settle the mex fixpoint from an initial dirty frontier.

        Processes dirty vertices in ascending tid order (a min-heap), so
        when a vertex is examined every smaller-tid neighbour already
        holds its final slot and the vertex is settled in one mex
        computation; a change pushes only *larger*-tid neighbours.  If
        the frontier exceeds ``max(_MIN_FRONTIER, _REBUILD_THRESHOLD *
        live)`` examined vertices, repairing is no longer cheaper than
        rebuilding and the engine recolors the whole live window instead.
        """
        examined = changed = 0
        limit = max(_MIN_FRONTIER, int(_REBUILD_THRESHOLD * len(self._txn)))
        heap = sorted(set(dirty))
        queued = set(heap)
        while heap:
            tid = heapq.heappop(heap)
            queued.discard(tid)
            if tid not in self._slot:
                continue
            examined += 1
            if examined > limit:
                self._recolor_all()
                self.repairs_examined += examined
                self.repairs_changed += changed
                return examined, changed, True
            if self._set_slot(tid, self._mex(tid)):
                changed += 1
                for u in self._adj[tid]:
                    if u > tid and u not in queued:
                        heapq.heappush(heap, u)
                        queued.add(u)
        self.repairs_examined += examined
        self.repairs_changed += changed
        return examined, changed, False

    def _recolor_all(self) -> None:
        """Full greedy recolor of the live set (the batch fixpoint)."""
        self.full_rebuilds += 1
        for tid in sorted(self._txn):
            self._set_slot(tid, self._mex(tid))

    def stats(self) -> Dict[str, int]:
        """Repair and memo counters (JSON-safe)."""
        rec = {
            "repairs_examined": self.repairs_examined,
            "repairs_changed": self.repairs_changed,
            "full_rebuilds": self.full_rebuilds,
        }
        rec.update({f"memo_{k}": v for k, v in self.memo.stats().items()})
        return rec


class SchedulerSession:
    """A long-lived scheduling conversation with one network.

    Open one with :func:`repro.open_session`; feed it transaction
    arrivals with :meth:`submit`, retire them with :meth:`commit` (which
    returns their commit times) or :meth:`abort`, and read the full
    schedule of the live window with :meth:`current_schedule` at any
    point.  The engine follows the resolved scheduler: the greedy family
    gets the incremental engine, whose deltas repair the conflict graph
    and colouring in place; every other scheduler is rebuilt from the
    live window on each read, so every topology keeps its specialized
    algorithm and bound.  :attr:`mode` reports which engine runs.
    ``algo="clique"`` on any other network raises
    :class:`~repro.errors.TopologyError` when the session opens, as
    :func:`repro.schedule` does.

    Either way the schedule observed through the session is identical,
    field by field, to ``repro.schedule()`` on the equivalent static
    instance -- sessions change the *cost* of heavy traffic, never the
    result.  Sessions are also deliberately cheap to snapshot: state is
    plain data (:meth:`snapshot`).
    """

    def __init__(
        self,
        network,
        *,
        algo: str = "auto",
        object_homes: Optional[Dict[int, int]] = None,
        home_policy: str = "static",
        rng: Optional[np.random.Generator] = None,
        recorder: Optional[Recorder] = None,
    ) -> None:
        from .dispatch import resolve_scheduler

        if home_policy not in _HOME_POLICIES:
            raise SessionError(
                f"unknown home_policy {home_policy!r}; "
                f"expected one of {_HOME_POLICIES}"
            )
        self.network = network
        self.home_policy = home_policy
        scheduler = resolve_scheduler(algo, topology=network.topology.name)
        self.algo = scheduler.name
        if self.algo == "clique":
            _require_clique(network)
        self._homes: Dict[int, int] = {
            int(o): int(v) for o, v in (object_homes or {}).items()
        }
        n = network.n
        for o, v in self._homes.items():
            if not 0 <= v < n:
                raise SessionError(
                    f"object {o} homed at node {v}, network has nodes "
                    f"0..{n - 1}"
                )
        self._rng = rng
        self._recorder = active(recorder)
        self._epoch = 0
        self._closed = False
        self._submitted = 0
        self._committed = 0
        self._aborted = 0
        self._engine: Optional[IncrementalConflictGraph] = None
        self._scheduler: Optional[Scheduler] = None
        if self.algo in GREEDY_FAMILY:
            self._engine = IncrementalConflictGraph(network)
        else:
            self._scheduler = scheduler
        self._active: Dict[int, Transaction] = {}
        self._node_tid: Dict[int, int] = {}
        self._cached: Optional[Schedule] = None
        # per-object positioning needs, kept current lazily from the
        # engine's dirty-object drain (incremental engine only)
        self._needs: Dict[int, int] = {}

    @property
    def mode(self) -> str:
        """The engine in use: ``"incremental"`` or ``"batch"``."""
        return "incremental" if self._engine is not None else "batch"

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def __enter__(self) -> "SchedulerSession":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def close(self) -> None:
        """Close the session; further deltas raise :class:`SessionError`."""
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise SessionError("session is closed")

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def epoch(self) -> int:
        """Number of commit epochs completed so far."""
        return self._epoch

    @property
    def active_count(self) -> int:
        """Number of live (submitted, not yet committed/aborted) txns."""
        if self._engine is not None:
            return len(self._engine)
        return len(self._active)

    def active_ids(self) -> List[int]:
        """Live transaction ids, ascending."""
        if self._engine is not None:
            return self._engine.tids()
        return sorted(self._active)

    def homes(self) -> Dict[int, int]:
        """Current ``object -> home node`` map (a copy)."""
        return dict(self._homes)

    @property
    def stats(self) -> Dict[str, int]:
        """Lifetime session counters (JSON-safe)."""
        rec = {
            "submitted": self._submitted,
            "committed": self._committed,
            "aborted": self._aborted,
            "epochs": self._epoch,
            "active": self.active_count,
        }
        if self._engine is not None:
            rec.update(self._engine.stats())
        return rec

    # ------------------------------------------------------------------ #
    # deltas
    # ------------------------------------------------------------------ #

    def _live(self, tid: int) -> bool:
        if self._engine is not None:
            return tid in self._engine
        return tid in self._active

    def _txn_of(self, tid: int) -> Transaction:
        if self._engine is not None:
            return self._engine.transaction(tid)
        return self._active[tid]

    def _node_map(self) -> Dict[int, int]:
        if self._engine is not None:
            return self._engine._node_tid
        return self._node_tid

    def submit(self, txns: Iterable[Transaction] | Transaction) -> None:
        """Admit new transactions into the live window.

        Validates the whole delta before applying any of it (an invalid
        batch leaves the session untouched): unique live tids, at most
        one live transaction per node, nodes in range, and every used
        object homed -- the same constraints the batch
        :class:`~repro.core.instance.Instance` enforces, surfaced as
        :class:`~repro.errors.SessionError` at the delta instead of at
        rebuild time.
        """
        self._check_open()
        batch = [txns] if isinstance(txns, Transaction) else list(txns)
        if not batch:
            return
        node_map = self._node_map()
        seen_tids: Set[int] = set()
        seen_nodes: Set[int] = set()
        n = self.network.n
        for t in batch:
            if t.tid in seen_tids or self._live(t.tid):
                raise SessionError(f"transaction {t.tid} is already live")
            if not 0 <= t.node < n:
                raise SessionError(
                    f"transaction {t.tid} pinned to node {t.node}, "
                    f"network has nodes 0..{n - 1}"
                )
            if t.node in seen_nodes or t.node in node_map:
                raise SessionError(
                    f"node {t.node} already hosts a live transaction "
                    f"(model allows one per node); cannot submit {t.tid}"
                )
            missing = sorted(o for o in t.objects if o not in self._homes)
            if missing:
                raise SessionError(
                    f"transaction {t.tid} uses unhomed objects {missing}"
                )
            seen_tids.add(t.tid)
            seen_nodes.add(t.node)
        examined = changed = 0
        rebuilt = False
        if self._engine is not None:
            for t in batch:
                e, c, r = self._engine.add(t)
                examined += e
                changed += c
                rebuilt = rebuilt or r
        else:
            for t in batch:
                self._active[t.tid] = t
                self._node_tid[t.node] = t.tid
        self._submitted += len(batch)
        self._cached = None
        if self._recorder.enabled:
            self._recorder.record(
                SessionDeltaEvent(
                    time=self._epoch,
                    op="submit",
                    count=len(batch),
                    dirty=examined,
                    repaired=changed,
                    rebuilt=rebuilt,
                )
            )
            self._recorder.count("session.submitted", len(batch))

    def commit(self, ids: Optional[Iterable[int]] = None) -> Dict[int, int]:
        """Retire transactions, returning their commit times.

        ``ids=None`` commits the whole live window.  Commit times are
        read from the *current* schedule of the full live set (colour
        plus the global positioning offset) before removal, so they are
        exactly what :meth:`current_schedule` would report.  Under
        ``home_policy="follow"`` each committed object's home moves to
        its last committing user, modelling the data-flow rule that
        objects stay where they were last written.
        """
        self._check_open()
        tids = self.active_ids() if ids is None else sorted(set(ids))
        for tid in tids:
            if not self._live(tid):
                raise SessionError(f"cannot commit {tid}: not a live transaction")
        if not tids:
            return {}
        times = self._commit_times(tids)
        committed = {tid: self._txn_of(tid) for tid in tids}
        examined, changed, rebuilt = self._remove(tids)
        if self.home_policy == "follow":
            movers: Dict[int, Tuple[int, int, int]] = {}
            for tid in tids:
                t = committed[tid]
                rank = (times[tid], tid)
                for obj in sorted(t.objects):
                    prev = movers.get(obj)
                    if prev is None or rank > (prev[0], prev[1]):
                        movers[obj] = (times[tid], tid, t.node)
            for obj in sorted(movers):
                self._homes[obj] = movers[obj][2]
            if self._engine is not None:
                self._engine.mark_objects_dirty(movers)
        self._committed += len(tids)
        self._epoch += 1
        self._cached = None
        if self._recorder.enabled:
            self._recorder.record(
                SessionDeltaEvent(
                    time=self._epoch,
                    op="commit",
                    count=len(tids),
                    dirty=examined,
                    repaired=changed,
                    rebuilt=rebuilt,
                )
            )
            self._recorder.count("session.committed", len(tids))
        return times

    def abort(self, ids: Optional[Iterable[int]] = None) -> None:
        """Retire transactions without committing (no times, no home moves)."""
        self._check_open()
        tids = self.active_ids() if ids is None else sorted(set(ids))
        for tid in tids:
            if not self._live(tid):
                raise SessionError(f"cannot abort {tid}: not a live transaction")
        if not tids:
            return
        examined, changed, rebuilt = self._remove(tids)
        self._aborted += len(tids)
        self._cached = None
        if self._recorder.enabled:
            self._recorder.record(
                SessionDeltaEvent(
                    time=self._epoch,
                    op="abort",
                    count=len(tids),
                    dirty=examined,
                    repaired=changed,
                    rebuilt=rebuilt,
                )
            )
            self._recorder.count("session.aborted", len(tids))

    def _remove(self, tids: List[int]) -> Tuple[int, int, bool]:
        examined = changed = 0
        rebuilt = False
        if self._engine is not None:
            for tid in tids:
                e, c, r = self._engine.remove(tid)
                examined += e
                changed += c
                rebuilt = rebuilt or r
        else:
            for tid in tids:
                txn = self._active.pop(tid)
                del self._node_tid[txn.node]
        return examined, changed, rebuilt

    # ------------------------------------------------------------------ #
    # schedule reads
    # ------------------------------------------------------------------ #

    def _positioning_offset(self) -> int:
        """Batch-identical offset over the live window (memoized dists).

        Per-object needs are cached in ``self._needs`` and refreshed only
        for objects the engine dirtied since the last read (slot moved,
        user set changed, home moved); an ``h_max`` change shifts every
        colour and invalidates the whole cache.
        """
        engine = self._engine
        assert engine is not None
        dirty, all_dirty = engine.drain_dirty_objects()
        if all_dirty:
            self._needs.clear()
            dirty = set(engine._obj_users)
        h = engine.h_max
        slot = engine._slot
        txn = engine._txn
        if dirty:
            objs: List[int] = []
            firsts: List[int] = []
            for obj in dirty:
                users = engine._obj_users.get(obj)
                if not users:
                    self._needs.pop(obj, None)
                    continue
                if len(users) == 1:
                    (first,) = users
                else:
                    first = min(users, key=lambda t: (slot[t], t))
                objs.append(obj)
                firsts.append(first)
            if objs:
                ds = engine.memo.pair_distances(
                    [self._homes[obj] for obj in objs],
                    [txn[first].node for first in firsts],
                )
                for obj, first, d in zip(objs, firsts, ds):
                    self._needs[obj] = d - (slot[first] * h + 1)
        offset = max(self._needs.values(), default=0)
        return offset if offset > 0 else 0

    def _commit_times(self, tids: List[int]) -> Dict[int, int]:
        engine = self._engine
        if engine is not None:
            h = engine.h_max
            offset = self._positioning_offset()
            return {tid: engine._slot[tid] * h + 1 + offset for tid in tids}
        sched = self._batch_schedule()
        return {tid: sched.commit_times[tid] for tid in tids}

    def _build_instance(self) -> Instance:
        # the session enforced every Instance invariant at submit time
        # (unique tids, one txn per node, nodes in range, used objects
        # homed) and checked every home when it opened, so skip
        # re-validation on the per-epoch read path
        engine = self._engine
        if engine is None:
            txns = [self._active[tid] for tid in sorted(self._active)]
            used: Set[int] = set()
            for t in txns:
                used.update(t.objects)
        else:
            txn_map = engine._txn
            txns = [txn_map[tid] for tid in sorted(txn_map)]
            used = set(engine._obj_users)
        homes = {obj: self._homes[obj] for obj in sorted(used)}
        return Instance._from_validated(self.network, txns, homes)

    def _batch_schedule(self) -> Schedule:
        if self._cached is None:
            assert self._scheduler is not None
            self._cached = self._scheduler.schedule(
                self._build_instance(), self._rng
            )
        return self._cached

    def current_schedule(self) -> Schedule:
        """The schedule of the live window, as the batch scheduler sees it."""
        self._check_open()
        if self.active_count == 0:
            raise SessionError("empty session has no schedule")
        engine = self._engine
        if engine is None:
            return self._batch_schedule()
        h = engine.h_max
        offset = self._positioning_offset()
        commits = {
            tid: engine._slot[tid] * h + 1 + offset for tid in engine.tids()
        }
        meta = {
            "scheduler": self.algo,
            "colors_used": engine.colors_used,
            "h_max": h,
            "delta": engine.max_degree,
            "gamma": engine.weighted_degree,
            "offset": offset,
            "engine": "incremental",
        }
        return Schedule(self._build_instance(), commits, meta)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe summary of the session's state and lifetime counters."""
        return {
            "mode": self.mode,
            "algo": self.algo,
            "home_policy": self.home_policy,
            "epoch": self._epoch,
            "closed": self._closed,
            "active": [
                {
                    "tid": t.tid,
                    "node": t.node,
                    "objects": sorted(t.objects),
                }
                for t in (self._txn_of(tid) for tid in self.active_ids())
            ],
            "homes": {int(k): int(v) for k, v in sorted(self._homes.items())},
            "stats": self.stats,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SchedulerSession(mode={self.mode!r}, algo={self.algo!r}, "
            f"active={self.active_count}, epoch={self._epoch})"
        )


def open_session(
    network, algo: str = "auto", **kwargs: Any
) -> SchedulerSession:
    """Open a :class:`SchedulerSession` on ``network``.

    The rolling-window entry point: ``repro.open_session(net)`` then
    ``submit`` / ``commit`` / ``current_schedule`` / ``snapshot``.  See
    :class:`SchedulerSession` for the keyword surface (``object_homes``,
    ``home_policy``, ``rng``, ``recorder``).  Usable as a context
    manager::

        with repro.open_session(net, object_homes=homes) as sess:
            sess.submit(txns)
            print(sess.current_schedule().makespan)
            sess.commit()
    """
    return SchedulerSession(network, algo=algo, **kwargs)
