"""Execution statistics for sweep runs.

:class:`ExecStats` is how the executor proves its worth: it counts jobs
and records per-job in-worker seconds so the CLI can print
min/median/p95/max and the simulation-vs-orchestration wall-clock split
next to the end-to-end wall-clock, plus the same seconds summed per
worker process, from which ``repro inspect`` finds stragglers.  Every
job is executed, so one count covers jobs requested and jobs run.
Stats objects merge, so one :class:`~repro.exec.executor.SweepExecutor`
can accumulate a whole multi-policy comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List


def _percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample set."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


@dataclass
class ExecStats:
    """Counters and timings for one or more executor runs."""

    jobs_total: int = 0
    wall_seconds: float = 0.0
    workers: int = 1
    job_seconds: List[float] = field(default_factory=list)
    #: In-worker job seconds summed per worker token
    #: (:func:`~repro.exec.envelope.worker_token`), one entry per worker.
    worker_seconds: Dict[str, float] = field(default_factory=dict)
    #: Kernel backend the jobs ran under ("scalar"/"numpy"); "mixed" when
    #: merged runs disagree, "" when no run recorded one.  Timings from
    #: different backends are not comparable, so the footer surfaces it.
    kernel_backend: str = ""

    @property
    def p95_seconds(self) -> float:
        return _percentile(self.job_seconds, 0.95)

    @property
    def min_seconds(self) -> float:
        return min(self.job_seconds) if self.job_seconds else 0.0

    @property
    def median_seconds(self) -> float:
        return _percentile(self.job_seconds, 0.50)

    @property
    def max_seconds(self) -> float:
        return max(self.job_seconds) if self.job_seconds else 0.0

    @property
    def job_seconds_total(self) -> float:
        """In-worker simulation seconds summed over every executed job."""
        return sum(self.job_seconds)

    @property
    def orchestration_seconds(self) -> float:
        """Wall-clock not spent simulating: scheduling and
        serialization.  With parallel workers the in-worker total can
        exceed the wall-clock, so this clamps at zero."""
        return max(0.0, self.wall_seconds - self.job_seconds_total)

    def merge(self, other: "ExecStats") -> "ExecStats":
        """Fold another run's counters into this one (in place)."""
        self.jobs_total += other.jobs_total
        self.wall_seconds += other.wall_seconds
        self.workers = max(self.workers, other.workers)
        self.job_seconds.extend(other.job_seconds)
        for worker, seconds in other.worker_seconds.items():
            self.worker_seconds[worker] = (
                self.worker_seconds.get(worker, 0.0) + seconds)
        if other.kernel_backend:
            if not self.kernel_backend:
                self.kernel_backend = other.kernel_backend
            elif self.kernel_backend != other.kernel_backend:
                self.kernel_backend = "mixed"
        return self

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form for run bundles (:mod:`repro.inspect`)."""
        return {
            "jobs_total": self.jobs_total,
            "wall_seconds": self.wall_seconds,
            "workers": self.workers,
            "job_seconds": list(self.job_seconds),
            "worker_seconds": dict(self.worker_seconds),
            "kernel_backend": self.kernel_backend,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExecStats":
        """Rebuild from :meth:`to_dict` output (unknown keys ignored,
        missing keys default — bundles written by older code, whose
        stats also counted result-cache traffic or held no per-worker
        seconds, still load)."""
        return cls(
            jobs_total=int(payload.get("jobs_total", 0)),
            wall_seconds=float(payload.get("wall_seconds", 0.0)),
            workers=int(payload.get("workers", 1)),
            job_seconds=[float(s) for s in payload.get("job_seconds", [])],
            worker_seconds={
                str(worker): float(seconds)
                for worker, seconds in payload.get(
                    "worker_seconds", {}).items()
            },
            kernel_backend=str(payload.get("kernel_backend", "")),
        )

    def format(self) -> str:
        """One-line human summary, e.g. for the CLI footer."""
        parts = [
            f"jobs {self.jobs_total}",
            f"workers {self.workers}",
            f"wall {self.wall_seconds:.2f}s",
        ]
        if self.kernel_backend:
            parts.append(f"backend {self.kernel_backend}")
        if self.job_seconds:
            parts.append(
                f"per-job min {self.min_seconds * 1e3:.1f}ms "
                f"median {self.median_seconds * 1e3:.1f}ms "
                f"p95 {self.p95_seconds * 1e3:.1f}ms "
                f"max {self.max_seconds * 1e3:.1f}ms"
            )
            parts.append(
                f"sim {self.job_seconds_total:.2f}s + "
                f"orchestration {self.orchestration_seconds:.2f}s"
            )
        return "ExecStats: " + "  ".join(parts)
