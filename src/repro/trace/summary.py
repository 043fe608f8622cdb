"""Derived metrics over a trace: the paper's time-resolved headlines.

:func:`summarize` folds a flat event list into the quantities the
evaluation sections plot:

* **fault rate per epoch** — driver faults (``fault`` events) over
  observed epochs, split by kind (Figure 11's PageMove breakdown is the
  lost-channel/rebalance split);
* **migration stall fraction** — epoch cycles consumed by reallocation
  windows over total simulated cycles (Figure 12a's occupancy series);
* **reallocation cadence** — mean epochs between *applied* partition
  decisions (plus how many were suppressed by hysteresis);
* **QoS interventions** — how often enforcement moved resources
  (Figure 16's story).

The summary works from events alone — it never needs the system object
— so it applies equally to a live recorder, a re-read JSONL file, or a
trace produced by another tool emitting the same record shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.trace.recorder import KIND_SPAN, TraceCategory, TraceEvent


@dataclass
class TraceSummary:
    """Aggregate view of one trace (see :func:`summarize`)."""

    total_events: int = 0
    #: Events the recorder's ring buffer overwrote before export.  A
    #: non-zero value means every derived rate below undercounts.
    dropped_events: int = 0
    by_category: Dict[str, int] = field(default_factory=dict)
    epochs: int = 0
    total_cycles: float = 0.0
    faults: int = 0
    faults_by_kind: Dict[str, int] = field(default_factory=dict)
    migration_cycles: float = 0.0
    reallocations_applied: int = 0
    reallocations_suppressed: int = 0
    realloc_epochs: List[int] = field(default_factory=list)
    qos_interventions: int = 0

    @property
    def fault_rate_per_epoch(self) -> float:
        """Driver faults per observed epoch (0 when no epochs traced)."""
        return self.faults / self.epochs if self.epochs else 0.0

    @property
    def migration_stall_fraction(self) -> float:
        """Fraction of simulated cycles inside reallocation windows,
        clamped to 1.0 for plotting; check
        :attr:`migration_stall_fraction_raw` for accounting sanity."""
        return min(1.0, self.migration_stall_fraction_raw)

    @property
    def migration_stall_fraction_raw(self) -> float:
        """The unclamped ratio.  A value above 1.0 means migration
        windows were charged more cycles than the epochs they sit in —
        an accounting bug upstream, not a plottable occupancy."""
        if self.total_cycles <= 0:
            return 0.0
        return self.migration_cycles / self.total_cycles

    @property
    def reallocation_cadence_epochs(self) -> Optional[float]:
        """Mean epochs between applied reallocations (None if < 2)."""
        if len(self.realloc_epochs) < 2:
            return None
        gaps = [
            b - a for a, b in zip(self.realloc_epochs, self.realloc_epochs[1:])
        ]
        return sum(gaps) / len(gaps)

    def format(self) -> str:
        """A short human-readable report (the CLI footer)."""
        lines = [
            f"trace: {self.total_events} events "
            + " ".join(
                f"{cat}={n}" for cat, n in sorted(self.by_category.items())
            )
        ]
        if self.dropped_events:
            lines.append(
                f"WARNING: ring buffer dropped {self.dropped_events} oldest "
                "events; rates below undercount"
            )
        if self.epochs:
            raw = self.migration_stall_fraction_raw
            stall_note = (
                f" (RAW {raw:.3f} > 1 — migration accounting bug?)"
                if raw > 1.0 else ""
            )
            lines.append(
                f"epochs: {self.epochs} covering {self.total_cycles:,.0f} cycles; "
                f"migration stall {self.migration_stall_fraction:.1%}{stall_note}"
            )
        if self.faults:
            kinds = " ".join(
                f"{k}={n}" for k, n in sorted(self.faults_by_kind.items())
            )
            lines.append(
                f"faults: {self.faults} ({kinds}); "
                f"{self.fault_rate_per_epoch:.1f}/epoch"
            )
        if self.reallocations_applied or self.reallocations_suppressed:
            cadence = self.reallocation_cadence_epochs
            cadence_text = (
                f", cadence {cadence:.1f} epochs" if cadence is not None else ""
            )
            lines.append(
                f"reallocations: {self.reallocations_applied} applied, "
                f"{self.reallocations_suppressed} suppressed{cadence_text}"
            )
        if self.qos_interventions:
            lines.append(f"qos interventions: {self.qos_interventions}")
        return "\n".join(lines)


def summarize(events: Sequence[TraceEvent],
              dropped_events: int = 0) -> TraceSummary:
    """Fold ``events`` into a :class:`TraceSummary`.

    ``dropped_events`` is the recorder's ring-buffer overwrite count
    (:attr:`TraceRecorder.dropped`); pass it so the summary can flag
    that its rates undercount.
    """
    summary = TraceSummary(total_events=len(events),
                           dropped_events=dropped_events)
    for event in events:
        summary.by_category[event.category] = (
            summary.by_category.get(event.category, 0) + 1
        )
        if event.category == TraceCategory.EPOCH.value:
            summary.epochs += 1
            summary.total_cycles += (
                event.duration if event.kind == KIND_SPAN else 0.0
            )
            summary.migration_cycles += float(
                event.args.get("migration_cycles", 0.0)
            )
        elif event.category == TraceCategory.FAULT.value:
            summary.faults += 1
            summary.faults_by_kind[event.name] = (
                summary.faults_by_kind.get(event.name, 0) + 1
            )
        elif event.category == TraceCategory.REALLOC.value:
            if event.name == "apply":
                summary.reallocations_applied += 1
                epoch = event.args.get("epoch")
                if epoch is not None:
                    summary.realloc_epochs.append(int(epoch))
            elif event.name == "suppress":
                summary.reallocations_suppressed += 1
        elif event.category == TraceCategory.QOS.value:
            summary.qos_interventions += 1
    summary.realloc_epochs.sort()
    return summary
