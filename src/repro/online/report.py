"""Online degradation reports: what resilience cost a live run.

The offline analogue (:class:`repro.faults.report.DegradationReport`)
compares a *planned* schedule against its faulty replay.  A live run has
no planned schedule to compare against, so the online report counts the
degradation directly: transactions lost to crashes, releases shed by
admission control, retry/reroute/re-homing work spent absorbing faults,
and the sanitizer's verdict.  The accounting identity ``committed + lost
+ shed = released`` always holds -- nothing is silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Tuple

from ..analysis.report import register_report, report_payload, report_to_json

__all__ = ["OnlineDegradationReport"]


@register_report("online_degradation")
@dataclass(frozen=True)
class OnlineDegradationReport:
    """Degradation accounting for one resilient online run.

    ``lost`` and ``shed`` carry ``(tid, reason)`` pairs: ``lost`` are
    transactions a crash made uncommittable (dead host node, unrecoverable
    object), ``shed`` are releases the admission controller refused.
    ``rehomed`` counts objects restored from their durable home after
    their lease-holding node crashed; ``violations`` is the sanitizer's
    count (always 0 on a correct runtime).
    """

    report_kind: ClassVar[str]  # set by @register_report

    released: int
    committed: int
    lost: Tuple[Tuple[int, str], ...]
    shed: Tuple[Tuple[int, str], ...]
    retries: int
    reroutes: int
    rehomed: int
    fault_count: int
    sanitizer_checks: int
    violations: int

    @property
    def commit_rate(self) -> float:
        """Fraction of released transactions that committed."""
        return self.committed / self.released if self.released else 1.0

    @property
    def shed_fraction(self) -> float:
        """Fraction of released transactions shed by admission control."""
        return len(self.shed) / self.released if self.released else 0.0

    def as_dict(self) -> dict[str, object]:
        """Plain-data summary for tables."""
        return {
            "released": self.released,
            "committed": self.committed,
            "lost": len(self.lost),
            "shed": len(self.shed),
            "commit_rate": self.commit_rate,
            "shed_fraction": self.shed_fraction,
            "retries": self.retries,
            "reroutes": self.reroutes,
            "rehomed": self.rehomed,
            "faults": self.fault_count,
            "violations": self.violations,
        }

    def to_json(self) -> str:
        """Full-fidelity JSON envelope (see :mod:`repro.analysis.report`)."""
        return report_to_json(self)

    @classmethod
    def from_json(cls, text: str) -> "OnlineDegradationReport":
        """Inverse of :meth:`to_json`."""
        payload = report_payload(text, expected_kind="online_degradation")
        payload["lost"] = tuple(
            (int(tid), str(reason)) for tid, reason in payload["lost"]
        )
        payload["shed"] = tuple(
            (int(tid), str(reason)) for tid, reason in payload["shed"]
        )
        return cls(**payload)

    def render(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"committed {self.committed}/{self.released} "
            f"(lost {len(self.lost)}, shed {len(self.shed)})",
            f"recovery work: retries {self.retries}, reroutes "
            f"{self.reroutes}, rehomed {self.rehomed} "
            f"({self.fault_count} faults planned)",
            f"sanitizer: {self.sanitizer_checks} checks, "
            f"{self.violations} violations",
        ]
        for tid, reason in self.lost:
            lines.append(f"  lost txn {tid}: {reason}")
        for tid, reason in self.shed:
            lines.append(f"  shed txn {tid}: {reason}")
        return "\n".join(lines)
