"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch package failures with a single ``except`` clause while still letting
programming errors (``TypeError`` etc.) propagate normally.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "InstanceError",
    "InfeasibleScheduleError",
    "TopologyError",
    "SchedulingError",
    "SessionError",
    "FaultError",
    "RecoveryError",
    "OverloadError",
    "ServiceError",
    "StaticCheckError",
    "LintError",
    "CertificationError",
    "InvariantViolationError",
    "ClusterError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class GraphError(ReproError):
    """The communication graph is malformed (disconnected, bad weights, ...)."""


class InstanceError(ReproError):
    """A scheduling problem instance violates a model constraint.

    The data-flow model of the paper requires at most one transaction per
    node, a single copy of every object, and positive integer edge weights.
    """


class InfeasibleScheduleError(ReproError):
    """A schedule violates feasibility.

    Raised when some object cannot physically reach a transaction's node by
    that transaction's commit time (an itinerary leg shorter than the
    shortest-path distance), or when a committed transaction is missing one
    of its objects during simulation.
    """


class TopologyError(ReproError):
    """A scheduler was applied to a network lacking required topology metadata."""


class SchedulingError(ReproError):
    """A scheduler failed to produce a schedule (internal invariant broken)."""


class SessionError(SchedulingError):
    """A stateful scheduler session was misused.

    Raised by :class:`repro.core.incremental.SchedulerSession` for delta
    violations the batch :class:`~repro.core.instance.Instance` would
    reject at construction -- two live transactions on one node, a
    duplicate live tid, an object without a home -- plus session-specific
    misuse: committing or aborting a transaction that is not live,
    reading the schedule of an empty session, or operating on a closed
    session.
    """


class FaultError(ReproError):
    """Fault-tolerant execution could not absorb an injected fault.

    Raised by :func:`repro.faults.faulty_execute` when a disruption exceeds
    the recovery machinery's tolerance: a hop stays blocked past the bounded
    retry budget (e.g. a permanently failed link with no detour), or an
    object becomes unrecoverable.  A *handled* fault never raises -- it is
    absorbed and accounted for in the degradation report.
    """


class RecoveryError(FaultError):
    """Recovery rescheduling after a fault is impossible.

    Raised when the surviving suffix of a disrupted run cannot be
    rescheduled -- typically because permanent link failures disconnect the
    degraded network, so no feasible recovery schedule exists for the
    surviving transactions.
    """


class OverloadError(ReproError):
    """Admission control refused a release and was configured to fail.

    Raised only by the scheduling service (:mod:`repro.service`) under
    ``ServiceConfig(admission="strict")``, when a release meets a closed
    high-water gate.  The graceful policies (``defer``, ``shed``) never
    raise -- refused releases are counted in the
    :class:`~repro.service.report.ServiceReport` instead, as the online
    runtime counts its high-water sheds in the
    :class:`~repro.online.report.OnlineDegradationReport`.
    """


class ServiceError(ReproError):
    """The continuous-arrival service was misconfigured or misused.

    Raised by the long-lived scheduling service (:mod:`repro.service`)
    for a bad :class:`~repro.service.ServiceConfig` or detector setting
    (caught when it is built, before any window runs) and for a bad
    call: a window count below one, an unbounded stream without one, or
    a restore or skip on a service that has already run.  Overload,
    expiry and saturation never raise it: the service degrades instead,
    counting shed and expired transactions in the
    :class:`~repro.service.report.ServiceReport` (only
    ``admission="strict"`` refuses a release, with
    :class:`OverloadError`).
    """


class StaticCheckError(ReproError):
    """Base class for static-analysis failures (:mod:`repro.staticcheck`).

    Static checks run *before* execution: the determinism lint over the
    source tree and the schedule certificate checker.  Both raise
    subclasses of this error, so review tooling can catch static
    verdicts separately from runtime failures.
    """


class LintError(StaticCheckError):
    """The lint engine itself was misused or could not run.

    Raised for an unknown rule id in ``--select``, an unreadable scan
    path, or a malformed suppression comment -- *not* for lint findings
    (findings are data, reported through the
    :class:`~repro.staticcheck.engine.LintReport`).
    """


class CertificationError(StaticCheckError):
    """A schedule failed static certification.

    Raised by :func:`repro.staticcheck.certify_schedule` (strict mode)
    when a schedule violates an invariant the certificate checker proves
    without executing it: an object needed in two places at once, a
    commit-time separation smaller than the conflict-edge weight, an
    itinerary leg shorter than the shortest-path distance, or a claimed
    theorem bound that does not hold.  ``failures`` carries the names of
    the failed checks.
    """

    def __init__(self, message: str, failures: tuple[str, ...] = ()) -> None:
        super().__init__(message)
        self.failures: tuple[str, ...] = tuple(failures)


class ClusterError(ReproError):
    """Multi-process cluster failures (:mod:`repro.cluster`).

    Raised for malformed cluster/chaos configuration, a journal
    directory that already holds another run's journals, wire-protocol
    violations on the supervisor/worker pipes, journal corruption, and
    replay-divergence (a restarted worker whose re-executed windows do
    not reproduce the journaled digests -- a determinism bug, never
    silently absorbed).  A worker that dies or goes silent never
    raises: it is restarted from its journal within its budget, or
    retired with its queued work counted ``lost``, and either way
    accounted in the :class:`~repro.cluster.report.ClusterReport`.
    """


class InvariantViolationError(ReproError):
    """A runtime safety invariant was violated during an online run.

    Raised by the invariant sanitizer (:mod:`repro.sim.sanitizer`) the
    moment a step hook observes corrupted state: an object in two places at
    once, a commit before its release, a hop entering a down link, or an
    object dispatched past a higher-priority waiter.  Turning silent
    corruption into an immediate typed failure is the sanitizer's whole
    job; a run that should not pay for the checks attaches none.
    """
