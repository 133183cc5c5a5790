"""Schedule certificates: prove validity claims without executing.

The runtime path checks a schedule by replaying it (``sim.execute``,
the sanitizer); this module proves the same §2 invariants *statically*,
from the commit-time assignment alone:

* **coverage** -- every transaction has a commit time >= 1;
* **single copy** -- no object is required at two distinct nodes in the
  same step (§2.1, the single-copy data-flow model);
* **itinerary feasibility** -- every itinerary leg spans at least the
  shortest-path distance (Definition 1);
* **conflict separation** -- for every edge of the dependency graph
  ``H``, the commit times differ by at least the edge weight (the §2.3
  greedy-colouring invariant);
* **theorem bound** -- the claimed scheduler's makespan guarantee holds
  (clique ``k*ell + 1``, diameter ``k*ell*d + 1`` -- each plus the
  positioning offset for arbitrary homes -- line ``4*ell``; the w.h.p.
  grid/cluster/star factors from ``SCHEDULER_INFO`` are recorded with
  the measured ratio but not enforced, as they only hold with high
  probability; the sharded family likewise records its measured factor
  together with the intra/cross phase makespans).

The result is a signed-off :class:`Certificate` -- a plain dict with a
SHA-256 signature over its canonical JSON -- that ``repro validate``
persists next to the schedule and any reviewer can re-verify offline
(:func:`verify_certificate`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Tuple

from ..bounds import makespan_lower_bound
from ..core.dependency import DependencyGraph
from ..core.dispatch import SCHEDULER_INFO
from ..core.greedy import CliqueScheduler, DiameterScheduler
from ..core.line import LineScheduler
from ..core.schedule import Schedule
from ..errors import CertificationError

__all__ = [
    "CheckResult",
    "Certificate",
    "certify_schedule",
    "verify_certificate",
    "certificate_to_dict",
    "certificate_from_dict",
]

#: order in which checks run and appear in the certificate
CHECK_NAMES: Tuple[str, ...] = (
    "coverage",
    "single_copy",
    "itinerary_feasibility",
    "conflict_separation",
    "theorem_bound",
)


@dataclass(frozen=True)
class CheckResult:
    """Verdict of one certificate check."""

    name: str
    passed: bool
    detail: str

    def as_dict(self) -> Dict[str, object]:
        """Plain-data form."""
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class Certificate:
    """Signed static-validity certificate for one schedule.

    ``signature`` is the SHA-256 hex digest of the canonical JSON of
    every other field, so any mutation of the certificate body (or a
    hand-edited check verdict) is detectable offline.
    """

    topology: str
    scheduler: str
    transactions: int
    makespan: int
    lower_bound: int
    checks: Tuple[CheckResult, ...]
    signature: str

    @property
    def ok(self) -> bool:
        """True iff every check passed."""
        return all(c.passed for c in self.checks)

    def failures(self) -> Tuple[str, ...]:
        """Names of the checks that failed, in check order."""
        return tuple(c.name for c in self.checks if not c.passed)

    def as_dict(self) -> Dict[str, object]:
        """Plain-data form (the persisted certificate body)."""
        return {
            "topology": self.topology,
            "scheduler": self.scheduler,
            "transactions": self.transactions,
            "makespan": self.makespan,
            "lower_bound": self.lower_bound,
            "ok": self.ok,
            "checks": [c.as_dict() for c in self.checks],
            "signature": self.signature,
        }

    def render(self) -> str:
        """Human-readable multi-line summary."""
        head = (
            f"certificate: {'OK' if self.ok else 'REJECTED'} "
            f"({self.scheduler} on {self.topology}, m={self.transactions}, "
            f"makespan {self.makespan}, lower bound {self.lower_bound})"
        )
        lines = [head]
        for c in self.checks:
            mark = "pass" if c.passed else "FAIL"
            lines.append(f"  [{mark}] {c.name}: {c.detail}")
        lines.append(f"  signature {self.signature[:16]}...")
        return "\n".join(lines)


def _sign(body: Dict[str, Any]) -> str:
    """Canonical-JSON SHA-256 of a certificate body (sans signature)."""
    unsigned = {k: v for k, v in body.items() if k != "signature"}
    blob = json.dumps(unsigned, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def certificate_to_dict(cert: Certificate) -> Dict[str, object]:
    """Plain-data form of a certificate (for the io envelope)."""
    return cert.as_dict()


def certificate_from_dict(data: Mapping[str, Any]) -> Certificate:
    """Inverse of :func:`certificate_to_dict` (signature preserved, not checked).

    Use :func:`verify_certificate` to check the signature of a loaded
    certificate.
    """
    checks = tuple(
        CheckResult(
            name=str(c["name"]),
            passed=bool(c["passed"]),
            detail=str(c["detail"]),
        )
        for c in data["checks"]
    )
    return Certificate(
        topology=str(data["topology"]),
        scheduler=str(data["scheduler"]),
        transactions=int(data["transactions"]),
        makespan=int(data["makespan"]),
        lower_bound=int(data["lower_bound"]),
        checks=checks,
        signature=str(data["signature"]),
    )


def verify_certificate(data: Mapping[str, Any] | Certificate) -> bool:
    """True iff the certificate's signature matches its body."""
    body = data.as_dict() if isinstance(data, Certificate) else dict(data)
    return _sign(body) == body.get("signature")


# ---------------------------------------------------------------------- #
# checks
# ---------------------------------------------------------------------- #


def _check_coverage(schedule: Schedule) -> CheckResult:
    missing = [
        t.tid
        for t in schedule.instance.transactions
        if t.tid not in schedule.commit_times
    ]
    bad = sorted(
        tid for tid, ct in schedule.commit_times.items() if ct < 1
    )
    if missing or bad:
        return CheckResult(
            "coverage", False,
            f"missing commit times {missing[:5]}, non-positive {bad[:5]}",
        )
    return CheckResult(
        "coverage", True,
        f"all {len(schedule.commit_times)} transactions commit at t >= 1",
    )


def _check_single_copy(schedule: Schedule) -> CheckResult:
    for obj, visits in schedule.itineraries():
        for a, b in zip(visits, visits[1:]):
            if b.time == a.time and b.node != a.node:
                return CheckResult(
                    "single_copy", False,
                    f"object {obj} required at nodes {a.node} and {b.node} "
                    f"simultaneously at t={a.time}",
                )
    return CheckResult(
        "single_copy", True,
        "no object is required at two nodes in the same step",
    )


def _check_itineraries(schedule: Schedule) -> CheckResult:
    dist = schedule.instance.network.dist
    worst_slack = None
    for obj, visits in schedule.itineraries():
        for a, b in zip(visits, visits[1:]):
            gap = b.time - a.time
            need = dist(a.node, b.node)
            if gap < need:
                return CheckResult(
                    "itinerary_feasibility", False,
                    f"object {obj}: leg (t={a.time}, node {a.node}) -> "
                    f"(t={b.time}, node {b.node}) allows {gap} steps but "
                    f"needs {need}",
                )
            slack = gap - need
            if worst_slack is None or slack < worst_slack:
                worst_slack = slack
    return CheckResult(
        "itinerary_feasibility", True,
        f"every leg covers its shortest-path distance "
        f"(tightest slack {0 if worst_slack is None else worst_slack})",
    )


def _check_conflict_separation(
    schedule: Schedule, graph: DependencyGraph
) -> CheckResult:
    commit = schedule.commit_times
    edges = 0
    for tid in graph.vertices():
        for nbr, weight in sorted(graph.neighbors(tid).items()):
            if nbr < tid:
                continue  # each undirected edge once
            edges += 1
            sep = abs(commit[tid] - commit[nbr])
            if sep < weight:
                return CheckResult(
                    "conflict_separation", False,
                    f"transactions {tid} and {nbr} commit {sep} apart but "
                    f"their conflict edge weighs {weight}",
                )
    return CheckResult(
        "conflict_separation", True,
        f"all {edges} dependency edges separated by >= their weight "
        f"(h_max={graph.h_max}, Delta={graph.max_degree})",
    )


def _positioning_slack(schedule: Schedule) -> int:
    """Safe upper bound on the scheduler's positioning offset.

    The greedy family shifts commits by ``max_o (dist(home, first) -
    colour_first)``; with colours >= 1 this is at most
    ``max_o (dist(home, first) - 1)``, computable from the schedule
    alone when the scheduler's recorded ``meta['offset']`` is absent.
    """
    inst = schedule.instance
    dist = inst.network.dist
    slack = 0
    for obj in inst.objects:
        users = inst.users(obj)
        if not users:
            continue
        first = min(users, key=lambda t: (schedule.commit_times[t.tid], t.tid))
        slack = max(slack, dist(inst.home(obj), first.node) - 1)
    return slack


def _check_theorem_bound(
    schedule: Schedule, lower_bound: int
) -> CheckResult:
    inst = schedule.instance
    name = str(schedule.meta.get("scheduler", ""))
    makespan = schedule.makespan
    offset_meta = schedule.meta.get("offset")
    offset = (
        int(offset_meta)
        if isinstance(offset_meta, int)
        else _positioning_slack(schedule)
    )

    if name in ("clique", "diameter", "greedy"):
        if name == "clique":
            bound = CliqueScheduler.theorem_bound(inst)
            label = "Thm 1 (k*ell + 1)"
        elif name == "diameter":
            bound = DiameterScheduler.theorem_bound(inst)
            label = "§3.1 (k*ell*d + 1)"
        else:
            bound = DependencyGraph.build(inst).weighted_degree + 1
            label = "§2.3 (Gamma + 1)"
        limit = bound + offset
        return CheckResult(
            "theorem_bound", makespan <= limit,
            f"{label}: makespan {makespan} vs bound {bound} + offset "
            f"{offset} = {limit}",
        )
    if name == "line":
        bound = LineScheduler.theorem_bound(inst)
        return CheckResult(
            "theorem_bound", makespan <= bound,
            f"Thm 2 (4*ell): makespan {makespan} vs bound {bound}",
        )
    if name in ("grid", "cluster", "star"):
        info = SCHEDULER_INFO[name]
        ratio = makespan / lower_bound if lower_bound else float(makespan)
        return CheckResult(
            "theorem_bound", True,
            f"{info.bound}: measured factor {ratio:.2f} recorded "
            f"(w.h.p. bound, not enforced)",
        )
    if name in ("sharded", "sharded-cluster"):
        info = SCHEDULER_INFO[name]
        ratio = makespan / lower_bound if lower_bound else float(makespan)
        intra = schedule.meta.get("intra_makespan", "?")
        cross = schedule.meta.get("cross_makespan", "?")
        return CheckResult(
            "theorem_bound", True,
            f"{info.bound}: measured factor {ratio:.2f} recorded "
            f"(intra phase {intra} + cross phase {cross}; "
            f"phase composition, not enforced)",
        )
    return CheckResult(
        "theorem_bound", True,
        f"scheduler {name or '<unknown>'} claims no theorem bound",
    )


# ---------------------------------------------------------------------- #
# entry point
# ---------------------------------------------------------------------- #


def certify_schedule(
    schedule: Schedule,
    *,
    strict: bool = True,
) -> Certificate:
    """Statically certify ``schedule`` (no execution, no randomness).

    Runs every check in :data:`CHECK_NAMES` and returns the signed
    :class:`Certificate`.  With ``strict`` (the default) a failing check
    raises :class:`~repro.errors.CertificationError` naming the failed
    checks; ``strict=False`` returns the certificate with ``ok=False``
    so callers can inspect or persist the rejection.
    """
    inst = schedule.instance
    graph = DependencyGraph.build(inst)
    lower = makespan_lower_bound(inst)
    checks: List[CheckResult] = [
        _check_coverage(schedule),
        _check_single_copy(schedule),
        _check_itineraries(schedule),
        _check_conflict_separation(schedule, graph),
        _check_theorem_bound(schedule, lower),
    ]
    body: Dict[str, Any] = {
        "topology": inst.network.topology.name,
        "scheduler": str(schedule.meta.get("scheduler", "")),
        "transactions": inst.m,
        "makespan": schedule.makespan,
        "lower_bound": lower,
        "ok": all(c.passed for c in checks),
        "checks": [c.as_dict() for c in checks],
    }
    cert = Certificate(
        topology=str(body["topology"]),
        scheduler=str(body["scheduler"]),
        transactions=inst.m,
        makespan=schedule.makespan,
        lower_bound=lower,
        checks=tuple(checks),
        signature=_sign(body),
    )
    if strict and not cert.ok:
        failed = cert.failures()
        details = "; ".join(
            c.detail for c in cert.checks if not c.passed
        )
        raise CertificationError(
            f"schedule failed static certification "
            f"({', '.join(failed)}): {details}",
            failures=failed,
        )
    return cert
