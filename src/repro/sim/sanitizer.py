"""Runtime invariant sanitizer: turn silent corruption into typed errors.

The online runtime (:func:`repro.online.run_resilient`) mutates shared
state -- object positions, in-flight sets, pending transactions -- step
by step.  A bug in that machinery does not crash; it silently produces a
wrong schedule.  An :class:`InvariantSanitizer` is a step hook the
runtime calls to assert the model's safety invariants *while decisions
are being made*:

* **single copy** -- every object sits at exactly one node, and the
  in-flight set is consistent with the position map (an object cannot be
  both delivered and moving);
* **no commit before release** -- a transaction's commit time is at least
  its release time, and every object it needs is on its node and idle at
  the commit step;
* **no traversal of a down link** -- a hop never enters a link the fault
  plan has down at the entry step;
* **priority monotonicity of object motion** -- an object is only ever
  dispatched toward the *highest-priority* pending transaction requesting
  it (the Greedy-CM discipline that makes the runtime livelock-free).

A violation raises :class:`~repro.errors.InvariantViolationError`
immediately, or is collected when ``raise_on_violation=False`` (the
runtime's parity tests collect them to compare two engines).  E18 runs
the raising form, so its ``violations`` column is zero unless a run
fails outright.  The checks cost
O(objects + pending) per step; a run that should not pay it passes no
sanitizer (``sanitizer=None``, the default).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

from ..errors import InvariantViolationError

__all__ = ["InvariantSanitizer"]


class InvariantSanitizer:
    """Step-hook asserting the online runtime's safety invariants.

    Parameters
    ----------
    raise_on_violation:
        ``True`` (default) raises :class:`InvariantViolationError` on the
        first violation; ``False`` collects messages in :attr:`violations`
        and keeps going (used for reporting).

    ``checks`` counts individual invariant evaluations, so tests and
    experiment tables can assert the sanitizer actually ran.
    """

    def __init__(self, raise_on_violation: bool = True) -> None:
        self.raise_on_violation = raise_on_violation
        self.checks = 0
        self.violations: List[str] = []

    def _fail(self, message: str) -> None:
        self.violations.append(message)
        if self.raise_on_violation:
            raise InvariantViolationError(message)

    # ------------------------------------------------------------------ #
    # hooks
    # ------------------------------------------------------------------ #

    def check_step(
        self,
        t: int,
        position: Mapping[int, int],
        moving: Iterable[int],
        pending: Mapping[int, object],
        n: Optional[int] = None,
    ) -> None:
        """Single-copy and state-consistency invariants, once per step.

        The runtime calls this at every step it visits; it skips the
        steps at which nothing happens.
        """
        self.checks += 1
        moving_set = set(moving)
        stray = moving_set - set(position)
        if stray:
            self._fail(
                f"t={t}: objects {sorted(stray)} are in flight but have no "
                f"position -- an object must have exactly one copy"
            )
        if n is not None:
            bad = {o: p for o, p in position.items() if not 0 <= p < n}
            if bad:
                self._fail(
                    f"t={t}: objects at nonexistent nodes: {sorted(bad.items())}"
                )
        for txn in pending.values():
            missing = set(txn.objects) - set(position)
            if missing:
                self._fail(
                    f"t={t}: pending transaction {txn.tid} requests objects "
                    f"{sorted(missing)} that have no copy anywhere"
                )

    def check_commit(
        self,
        t: int,
        txn,
        position: Mapping[int, int],
        moving: Iterable[int],
        release: Mapping[int, int],
    ) -> None:
        """No commit before release; all objects present and idle."""
        self.checks += 1
        rel = release.get(txn.tid)
        if rel is not None and t < rel:
            self._fail(
                f"t={t}: transaction {txn.tid} commits before its release "
                f"at t={rel}"
            )
        moving_set = set(moving)
        for obj in sorted(txn.objects):
            if obj in moving_set:
                self._fail(
                    f"t={t}: transaction {txn.tid} commits while object "
                    f"{obj} is still in flight"
                )
            elif position.get(obj) != txn.node:
                self._fail(
                    f"t={t}: transaction {txn.tid} commits at node "
                    f"{txn.node} but object {obj} sits at "
                    f"node {position.get(obj)}"
                )

    def check_hop(self, t: int, u: int, v: int, plan) -> None:
        """A hop entered at ``t`` must not traverse a down link."""
        self.checks += 1
        ev = plan.link_down(u, v, t)
        if ev is not None:
            self._fail(
                f"t={t}: hop enters down link ({u},{v}) -- {ev.describe()}"
            )

    def check_dispatch(
        self,
        t: int,
        obj: int,
        target,
        pending: Mapping[int, object],
        prio: Dict[int, tuple],
    ) -> None:
        """Objects move only toward their highest-priority pending waiter."""
        self.checks += 1
        requesters = [
            txn for txn in pending.values() if obj in txn.objects
        ]
        if not requesters:
            self._fail(
                f"t={t}: object {obj} dispatched toward transaction "
                f"{target.tid} which no pending transaction backs"
            )
            return
        best = min(requesters, key=lambda txn: prio[txn.tid])
        if prio[target.tid] > prio[best.tid]:
            self._fail(
                f"t={t}: object {obj} dispatched toward transaction "
                f"{target.tid} past higher-priority waiter {best.tid} -- "
                f"priority monotonicity broken"
            )
