"""Fleet health monitoring over the merged observability streams.

A fleet that *finishes* is not necessarily a fleet that is *well*: one
worker can take 10x the round median (a straggler pinning the round
barrier), the wait queue can climb monotonically while the placement
policy thrashes, and the shard cache can silently stop hitting after a
config drift.  :class:`FleetHealthMonitor` watches for exactly those
three failure shapes at round boundaries, using the same merged
numbers the telemetry registry exports — so what it alarms on is what
an operator can also see on a dashboard.

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
``cache_collapse``
    The shard cache's hit rate over the last ``cache_window`` rounds
    fell to ``cache_floor`` or below after the run had established a
    baseline rate of at least ``cache_baseline`` — memoization stopped
    working mid-run.

Each incident is one ``health`` event (named by kind) on the monitor's
:class:`~repro.obs.Obs` handle: the trace keeps it, the registry counts
it in ``repro_health_incidents_total`` and the obslog writes it as a
warning record ``health.<kind>``; the detectors' gauges are set
directly.  The handle defaults to :data:`~repro.obs.OFF`; the monitor
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
KIND_CACHE_COLLAPSE = "cache_collapse"


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
        cache_window: int = 8,
        cache_floor: float = 0.05,
        cache_baseline: float = 0.5,
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
        if cache_window < 1:
            raise ConfigError(f"cache_window must be >= 1, got {cache_window}")
        if not 0.0 <= cache_floor < cache_baseline <= 1.0:
            raise ConfigError(
                "need 0 <= cache_floor < cache_baseline <= 1, got "
                f"floor={cache_floor} baseline={cache_baseline}"
            )
        self.straggler_factor = straggler_factor
        self.straggler_min_seconds = straggler_min_seconds
        self.stall_rounds = stall_rounds
        self.cache_window = cache_window
        self.cache_floor = cache_floor
        self.cache_baseline = cache_baseline
        self.obs = obs
        from repro.telemetry import names as _names

        obs.declare("health")
        self._m_straggler = obs.metric(_names.health_straggler_ratio)
        self._m_stall = obs.metric(_names.health_wait_stall_rounds)
        self._m_cache = obs.metric(_names.health_cache_hit_rate)
        #: Correlation ID stamped onto trace/log emissions; the fleet
        #: simulator fills it in when the monitor is attached to a run.
        self.run_id: str = ""
        self.rounds = 0
        self.incidents: List[HealthIncident] = []
        #: Last stall_rounds+1 wait depths (the window needs k deltas).
        self._depths: deque = deque(maxlen=stall_rounds + 1)
        #: (hits, lookups) per round over the cache window.
        self._cache_rounds: deque = deque(maxlen=cache_window)
        self._cache_hits_total = 0
        self._cache_lookups_total = 0
        self._baseline_seen = False

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
        cache_hits: int = 0,
        cache_lookups: int = 0,
    ) -> List[HealthIncident]:
        """Digest one round; returns incidents this round tripped.

        ``job_seconds`` are the round's per-worker-job wall times (the
        executor's ``last_stats.job_seconds``); ``cache_hits`` /
        ``cache_lookups`` are the round's shard-cache numbers.
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

        # --- cache collapse: windowed rate vs established baseline ------
        self._cache_rounds.append((int(cache_hits), int(cache_lookups)))
        self._cache_hits_total += int(cache_hits)
        self._cache_lookups_total += int(cache_lookups)
        window_hits = sum(h for h, _ in self._cache_rounds)
        window_lookups = sum(n for _, n in self._cache_rounds)
        window_rate = (
            window_hits / window_lookups if window_lookups else 0.0
        )
        if window_lookups:
            self._m_cache.set(window_rate)
        baseline_rate = (
            self._cache_hits_total / self._cache_lookups_total
            if self._cache_lookups_total else 0.0
        )
        if (
            not self._baseline_seen
            and self._cache_lookups_total >= self.cache_window
            and baseline_rate >= self.cache_baseline
        ):
            self._baseline_seen = True
        if (
            self._baseline_seen
            and len(self._cache_rounds) == self.cache_window
            and window_lookups >= self.cache_window
            and window_rate <= self.cache_floor
        ):
            self._fire(
                KIND_CACHE_COLLAPSE, round_index, now,
                f"shard-cache hit rate fell to {window_rate:.0%} over the "
                f"last {self.cache_window} rounds (run baseline "
                f"{baseline_rate:.0%})",
                window_rate,
            )
            # Re-arm on a fresh window; the baseline stays established.
            self._cache_rounds.clear()

        return self.incidents[before:]

    def report(self) -> HealthReport:
        return HealthReport(
            rounds=self.rounds, incidents=tuple(self.incidents)
        )
