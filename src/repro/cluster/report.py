"""Cluster reports: what N supervised workers jointly committed.

:class:`ClusterReport` merges the per-worker
:class:`~repro.service.ServiceReport` accounting into cluster-wide
totals and latency percentiles, and carries the supervision story on
the side: which chaos events were planned, how many restarts the
supervisor performed, which workers were retired.  The cluster-wide
conservation identity ``committed + shed + expired + lost +
final_backlog == released`` holds exactly -- recovery may *move*
transactions between outcome buckets (a retired worker's queue becomes
typed loss) but never drops one.

Parity is the crash-tolerance proof: :meth:`ClusterReport.parity_key`
covers only the *outcome* fields (totals, per-worker accounting,
latency percentiles) and excludes the chaos plan, restart counts, and
wall timings, so a kill-chaos run compares bit-equal to the fault-free
run -- the same split the sweep report makes between results and
``profiles``.

Registered as report kind ``"cluster"`` in the unified Report protocol
(:mod:`repro.analysis.report`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Tuple

from ..analysis.report import register_report, report_payload, report_to_json

__all__ = ["ClusterReport"]


@register_report("cluster")
@dataclass(frozen=True)
class ClusterReport:
    """Merged accounting for one supervised multi-process run.

    ``per_worker`` holds one outcome summary per worker slot (final
    incarnation): its residue class (``classes == [worker]``, owned
    from ``start_window == 0``), full accounting, and how it ended
    (``"done"`` or ``"retired"``).
    ``restarts``, ``stragglers``, ``chaos``, and ``wall_s`` describe
    the *path* taken, not the outcome, and are excluded from parity.
    """

    report_kind: ClassVar[str]  # set by @register_report

    topology: str
    engine: str
    stream: str
    workers: int
    windows: int
    window_len: int
    seed: int
    released: int
    committed: int
    shed: int
    expired: int
    lost: int
    final_backlog: int
    sojourn_p50: float
    sojourn_p99: float
    sojourn_mean: float
    sojourn_max: int
    per_worker: Tuple[Dict[str, Any], ...]
    chaos: Tuple[Dict[str, Any], ...]
    restarts: int
    stragglers: int
    wall_s: float
    # cross-shard coordination traffic under StreamSpec(assign="shard")
    # (0 otherwise)
    cross_shard: int

    @property
    def accounted(self) -> bool:
        """The cluster-wide conservation identity: nothing silently dropped."""
        return (
            self.committed + self.shed + self.expired + self.lost
            + self.final_backlog
            == self.released
        )

    @property
    def commit_rate(self) -> float:
        """Fraction of released transactions that committed."""
        return self.committed / self.released if self.released else 1.0

    def parity_key(self) -> Dict[str, Any]:
        """Outcome-only view for bit-parity comparisons across fault plans.

        Excludes ``chaos``, ``restarts``, ``stragglers``, and ``wall_s``:
        a run that crashed and recovered must produce the same key as the
        run that never crashed.  Per-worker entries keep their accounting
        but drop their own path fields (restart counts, end states).
        """
        return {
            "topology": self.topology,
            "engine": self.engine,
            "stream": self.stream,
            "workers": self.workers,
            "windows": self.windows,
            "window_len": self.window_len,
            "seed": self.seed,
            "released": self.released,
            "committed": self.committed,
            "shed": self.shed,
            "expired": self.expired,
            "lost": self.lost,
            "final_backlog": self.final_backlog,
            "sojourn_p50": self.sojourn_p50,
            "sojourn_p99": self.sojourn_p99,
            "sojourn_mean": self.sojourn_mean,
            "sojourn_max": self.sojourn_max,
            "cross_shard": self.cross_shard,
            "per_worker": tuple(
                {
                    k: v
                    for k, v in w.items()
                    if k not in ("restarts", "end", "replayed")
                }
                for w in self.per_worker
            ),
        }

    def as_dict(self) -> Dict[str, Any]:
        """Plain-data summary for tables."""
        return {
            "topology": self.topology,
            "workers": self.workers,
            "windows": self.windows,
            "released": self.released,
            "committed": self.committed,
            "shed": self.shed,
            "expired": self.expired,
            "lost": self.lost,
            "final_backlog": self.final_backlog,
            "cross_shard": self.cross_shard,
            "commit_rate": self.commit_rate,
            "sojourn_p50": self.sojourn_p50,
            "sojourn_p99": self.sojourn_p99,
            "restarts": self.restarts,
            "stragglers": self.stragglers,
            "chaos_events": len(self.chaos),
        }

    def to_json(self) -> str:
        """Full-fidelity JSON envelope (see :mod:`repro.analysis.report`)."""
        return report_to_json(self)

    @classmethod
    def from_json(cls, text: str) -> "ClusterReport":
        """Inverse of :meth:`to_json`."""
        payload = report_payload(text, expected_kind="cluster")
        payload["per_worker"] = tuple(payload["per_worker"])
        payload["chaos"] = tuple(payload["chaos"])
        return cls(**payload)

    def render(self) -> str:
        """Multi-line human-readable summary."""
        path = (
            f"{len(self.chaos)} chaos events, {self.restarts} restarts, "
            f"{self.stragglers} stragglers"
            if self.chaos or self.restarts or self.stragglers
            else "no faults"
        )
        lines = [
            f"cluster[{self.engine}] on {self.topology}: {self.workers} "
            f"workers x {self.windows} windows ({self.stream} stream, "
            f"seed {self.seed}); {path}",
            f"committed {self.committed}/{self.released} "
            f"(shed {self.shed}, expired {self.expired}, lost {self.lost}, "
            f"queued {self.final_backlog}, cross-shard {self.cross_shard}) "
            f"[{'accounted' if self.accounted else 'LEAK'}]",
            f"sojourn: p50 {self.sojourn_p50:.1f}, p99 "
            f"{self.sojourn_p99:.1f}, mean {self.sojourn_mean:.1f}, "
            f"max {self.sojourn_max}; wall {self.wall_s:.2f}s",
        ]
        for w in self.per_worker:
            lines.append(
                f"  worker {w['worker']}: committed {w['committed']}, "
                f"shed {w['shed']}, expired {w['expired']}, "
                f"lost {w['lost']}, queued {w['final_backlog']} "
                f"({w['end']}, {w['restarts']} restarts)"
            )
        return "\n".join(lines)
