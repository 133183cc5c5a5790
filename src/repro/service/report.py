"""Service reports: what a long-lived run committed, shed, and queued.

A finite run has a makespan; a service has a *steady state* (or fails to
reach one).  :class:`ServiceReport` therefore carries the stability
evidence: the mean and peak backlog, sojourn-latency percentiles,
utilization, the saturation detector's verdict, and the full loss
accounting.  The identity ``committed + shed + expired + lost +
final_backlog == released`` always holds -- every transaction the stream
released is accounted for exactly once.

Registered as report kind ``"service"`` in the unified Report protocol
(:mod:`repro.analysis.report`), so service reports round-trip through
the same versioned JSON envelopes as every other measurement.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import ClassVar, Dict, Mapping, Optional

from ..analysis.report import register_report, report_payload, report_to_json

__all__ = ["ServiceReport", "sojourn_summary"]


def sojourn_summary(histogram: Mapping[int, int]) -> Dict[str, float]:
    """A report's ``sojourn_*`` fields from a sojourn value -> count histogram.

    ``sojourn_p50`` and ``sojourn_p99`` take the nearest rank, the value
    at index ``ceil(q * n) - 1`` of the ``n`` sorted samples;
    ``sojourn_mean`` and the int ``sojourn_max`` are exact, and all four
    are zero when the histogram is empty.  :class:`ServiceReport` and the
    cluster supervisor's merge both take their fields from here.
    """
    values = sorted(histogram)
    cumulative = list(accumulate(histogram[v] for v in values))
    n = cumulative[-1] if values else 0

    def percentile(q: float) -> float:
        rank = max(1, int(-(-q * n // 1)))  # ceil
        return float(values[bisect_left(cumulative, rank)]) if n else 0.0

    return {
        "sojourn_p50": percentile(0.50),
        "sojourn_p99": percentile(0.99),
        "sojourn_mean": sum(v * c for v, c in histogram.items()) / n if n else 0.0,
        "sojourn_max": values[-1] if values else 0,
    }


@register_report("service")
@dataclass(frozen=True)
class ServiceReport:
    """Stability and degradation accounting for one service run.

    ``mean_backlog`` and ``peak_backlog`` summarize the queue length
    after each window this service ran (the series the saturation
    detector regresses on).  ``expired`` counts deadline expiries,
    ``lost`` counts crash/retry-budget casualties, ``shed`` counts
    admission refusals; ``final_backlog`` is work still queued when the
    run stopped.  ``saturated_at`` is the window index of the detector's
    first trip (``None`` if it never tripped).
    """

    report_kind: ClassVar[str]  # set by @register_report

    windows: int
    window_len: int
    engine: str
    released: int
    admitted: int
    committed: int
    shed: int
    expired: int
    lost: int
    deferred_admissions: int
    window_retries: int
    fault_count: int
    mean_backlog: float
    peak_backlog: int
    final_backlog: int
    sojourn_p50: float
    sojourn_p99: float
    sojourn_mean: float
    sojourn_max: int
    elapsed: int
    busy: int
    saturated_at: Optional[int]
    shed_windows: int
    detector_trips: int
    final_slope: float

    @property
    def saturated(self) -> bool:
        """True iff the saturation detector ever tripped."""
        return self.saturated_at is not None

    @property
    def commit_rate(self) -> float:
        """Fraction of released transactions that committed."""
        return self.committed / self.released if self.released else 1.0

    @property
    def shed_fraction(self) -> float:
        """Fraction of released transactions refused by admission."""
        return self.shed / self.released if self.released else 0.0

    @property
    def utilization(self) -> float:
        """Fraction of elapsed time the scheduler was executing windows."""
        return self.busy / self.elapsed if self.elapsed else 0.0

    @property
    def accounted(self) -> bool:
        """The conservation identity: nothing silently dropped."""
        return (
            self.committed + self.shed + self.expired + self.lost
            + self.final_backlog
            == self.released
        )

    def as_dict(self) -> dict[str, object]:
        """Plain-data summary for tables."""
        return {
            "windows": self.windows,
            "released": self.released,
            "committed": self.committed,
            "shed": self.shed,
            "expired": self.expired,
            "lost": self.lost,
            "commit_rate": self.commit_rate,
            "shed_fraction": self.shed_fraction,
            "mean_backlog": self.mean_backlog,
            "peak_backlog": self.peak_backlog,
            "final_backlog": self.final_backlog,
            "sojourn_p50": self.sojourn_p50,
            "sojourn_p99": self.sojourn_p99,
            "utilization": self.utilization,
            "saturated": self.saturated,
            "saturated_at": self.saturated_at,
            "shed_windows": self.shed_windows,
        }

    def to_json(self) -> str:
        """Full-fidelity JSON envelope (see :mod:`repro.analysis.report`)."""
        return report_to_json(self)

    @classmethod
    def from_json(cls, text: str) -> "ServiceReport":
        """Inverse of :meth:`to_json`."""
        return cls(**report_payload(text, expected_kind="service"))

    def render(self) -> str:
        """Multi-line human-readable summary."""
        sat = (
            f"saturated at window {self.saturated_at} "
            f"({self.detector_trips} trips, {self.shed_windows} shed windows)"
            if self.saturated
            else "never saturated"
        )
        return "\n".join([
            f"service[{self.engine}]: {self.windows} windows x "
            f"{self.window_len} steps, {self.fault_count} faults planned",
            f"committed {self.committed}/{self.released} "
            f"(shed {self.shed}, expired {self.expired}, lost {self.lost}, "
            f"queued {self.final_backlog}, deferred "
            f"{self.deferred_admissions}, window retries "
            f"{self.window_retries})",
            f"backlog: mean {self.mean_backlog:.1f}, peak "
            f"{self.peak_backlog}, slope {self.final_slope:.3f}; {sat}",
            f"sojourn: p50 {self.sojourn_p50:.1f}, p99 "
            f"{self.sojourn_p99:.1f}, mean {self.sojourn_mean:.1f}, max "
            f"{self.sojourn_max}; utilization {self.utilization:.2f}",
        ])
