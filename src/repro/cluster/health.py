"""Fleet health monitoring over the merged observability streams.

A fleet that *finishes* is not necessarily a fleet that is *well*: one
worker can take 10x the round median (a straggler pinning the round
barrier), and the wait queue can climb monotonically while the placement
policy thrashes.  :class:`FleetHealthMonitor` watches for exactly those
two failure shapes at round boundaries, using the same merged numbers
the telemetry registry exports — so what it alarms on is what an
operator can also see on a dashboard.

Detectors
---------

``straggler``
    The slowest worker job of a round took at least
    ``straggler_factor`` times the round's median wall time (and at
    least ``straggler_min_seconds``, so microsecond noise on tiny
    rounds never alarms).  Needs >= 3 job samples for a meaningful
    median.
``wait_stall``
    Wait-queue depth was monotonically non-decreasing over the last
    ``stall_rounds`` rounds with a net increase and a non-empty queue —
    arrivals are outpacing admissions with no sign of recovery.

Each incident is one ``health`` event (named by kind) on the monitor's
:class:`~repro.obs.Obs` handle: the trace keeps it and the registry
counts it in ``repro_health_incidents_total``; the detectors' gauges
are set directly.  The handle defaults to :data:`~repro.obs.OFF`; the monitor
itself is pure bookkeeping — no clocks, no I/O — so detection is
deterministic and unit-testable with synthetic round feeds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigError
from repro.obs import OFF, Obs

#: Incident kinds, in detector order.
KIND_STRAGGLER = "straggler"
KIND_WAIT_STALL = "wait_stall"


@dataclass(frozen=True)
class HealthIncident:
    """One detected anomaly, anchored to the round that tripped it."""

    kind: str
    round_index: int
    detail: str
    value: float = 0.0


@dataclass
class HealthReport:
    """What the monitor saw over a whole run."""

    rounds: int = 0
    incidents: Tuple[HealthIncident, ...] = ()

    @property
    def healthy(self) -> bool:
        return not self.incidents

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for incident in self.incidents:
            out[incident.kind] = out.get(incident.kind, 0) + 1
        return out

    def format(self) -> str:
        """The ``health`` block ``repro fleet --health`` prints."""
        if self.healthy:
            return f"health: ok ({self.rounds} rounds, no incidents)"
        counts = self.counts()
        summary = ", ".join(
            f"{kind} x{count}" for kind, count in sorted(counts.items())
        )
        lines = [f"health: {len(self.incidents)} incidents ({summary})"]
        for incident in self.incidents:
            lines.append(
                f"  [{incident.kind}] round {incident.round_index}: "
                f"{incident.detail}"
            )
        return "\n".join(lines)


class FleetHealthMonitor:
    """Round-boundary anomaly detection over merged fleet metrics.

    Feed it one :meth:`observe_round` call per scheduling round; read
    the verdict with :meth:`report`.  Thresholds are constructor knobs
    so tests (and operators) can tighten or relax each detector.
    """

    def __init__(
        self,
        *,
        straggler_factor: float = 4.0,
        straggler_min_seconds: float = 0.05,
        stall_rounds: int = 5,
        obs: Obs = OFF,
    ) -> None:
        if straggler_factor <= 1.0:
            raise ConfigError(
                f"straggler_factor must be > 1, got {straggler_factor}"
            )
        if straggler_min_seconds < 0:
            raise ConfigError("straggler_min_seconds cannot be negative")
        if stall_rounds < 2:
            raise ConfigError(f"stall_rounds must be >= 2, got {stall_rounds}")
        self.straggler_factor = straggler_factor
        self.straggler_min_seconds = straggler_min_seconds
        self.stall_rounds = stall_rounds
        self.obs = obs
        from repro.telemetry import names as _names

        obs.declare("health")
        self._m_straggler = obs.metric(_names.health_straggler_ratio)
        self._m_stall = obs.metric(_names.health_wait_stall_rounds)
        #: Correlation ID stamped onto trace/log emissions; the fleet
        #: simulator fills it in when the monitor is attached to a run.
        self.run_id: str = ""
        self.rounds = 0
        self.incidents: List[HealthIncident] = []
        #: Last stall_rounds+1 wait depths (the window needs k deltas).
        self._depths: deque = deque(maxlen=stall_rounds + 1)

    # ------------------------------------------------------------------
    def _fire(self, kind: str, round_index: int, now: float,
              detail: str, value: float) -> None:
        incident = HealthIncident(
            kind=kind, round_index=round_index, detail=detail, value=value
        )
        self.incidents.append(incident)
        extra = {"round": round_index, "detail": detail, "value": value}
        if self.run_id:
            extra["run_id"] = self.run_id
        self.obs.emit("health", kind, time=float(now), **extra)

    # ------------------------------------------------------------------
    def observe_round(
        self,
        round_index: int,
        *,
        now: float = 0.0,
        job_seconds: Sequence[float] = (),
        wait_depth: int = 0,
    ) -> List[HealthIncident]:
        """Digest one round; returns incidents this round tripped.

        ``job_seconds`` are the round's per-worker-job wall times (the
        executor's ``last_stats.job_seconds``); ``wait_depth`` is the
        fleet's wait-queue depth at the round's end.
        """
        self.rounds += 1
        before = len(self.incidents)

        # --- straggler: worst job vs round median -----------------------
        samples = sorted(float(s) for s in job_seconds)
        if len(samples) >= 3:
            median = samples[len(samples) // 2]
            worst = samples[-1]
            ratio = worst / median if median > 0 else 0.0
            self._m_straggler.set(ratio)
            if (
                median > 0
                and worst >= self.straggler_min_seconds
                and ratio >= self.straggler_factor
            ):
                self._fire(
                    KIND_STRAGGLER, round_index, now,
                    f"slowest worker job {worst * 1e3:.1f}ms vs round "
                    f"median {median * 1e3:.1f}ms ({ratio:.1f}x)",
                    ratio,
                )

        # --- wait-queue stall: monotone rise over the window ------------
        self._depths.append(int(wait_depth))
        if len(self._depths) == self._depths.maxlen:
            depths = list(self._depths)
            rising = all(b >= a for a, b in zip(depths, depths[1:]))
            if rising and depths[-1] > depths[0] and depths[-1] > 0:
                self._m_stall.set(self.stall_rounds)
                self._fire(
                    KIND_WAIT_STALL, round_index, now,
                    f"wait-queue depth rose {depths[0]} -> {depths[-1]} "
                    f"over {self.stall_rounds} rounds without draining",
                    float(depths[-1] - depths[0]),
                )
                # Re-arm: a persistent stall alarms once per window, not
                # once per round.
                self._depths.clear()
        if self.obs.on and len(self._depths) >= 2:
            depths = list(self._depths)
            streak = 0
            for a, b in zip(depths, depths[1:]):
                streak = streak + 1 if b >= a else 0
            self._m_stall.set(streak)

        return self.incidents[before:]

    def report(self) -> HealthReport:
        return HealthReport(
            rounds=self.rounds, incidents=tuple(self.incidents)
        )
