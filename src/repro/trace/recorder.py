"""Typed, ring-buffered trace recording (zero overhead when absent).

The reproduction's headline claims are *time-resolved*: Figure 11's
PageMove breakdown, Figure 12a's per-epoch reallocation occupancy and
Figure 16's QoS interventions are all stories about *when* something
happened, not just how much of it.  :class:`TraceRecorder` is the shared
substrate every silent layer reports into, through its
:class:`~repro.obs.Obs` handle:

* :class:`~repro.core.system.MultitaskSystem` — epoch boundaries
  (``epoch``) and, under :class:`~repro.policies.ugpu.UGPUPolicy`,
  partition decisions (``realloc``), QoS interventions (``qos``) and migration
  windows (``migration``);
* :class:`~repro.pagemove.engine.MigrationEngine` — plan sizes and
  execution charges (``migration``);
* :class:`~repro.vm.driver.GPUDriver` — faults by kind (``fault``);
* the fleet simulator and its workers — lifecycle (``fleet``),
  node physics (``node``) and health incidents (``health``).

A run's trace is its one event log and keeps one clock, GPU cycles:
the sweep executor's facts are wall seconds, so it emits no event, and
its per-job and per-worker seconds live in
:class:`~repro.exec.stats.ExecStats` and the registry.

Design constraints, in order:

1. **Zero overhead when absent.**  Every instrumented component takes
   one ``obs`` handle that defaults to :data:`repro.obs.OFF` and guards
   each emission with a single ``obs.on`` test, so untraced simulations
   produce byte-identical results.
2. **Bounded memory.**  The buffer is a ring (``collections.deque`` with
   ``maxlen``): a 25M-cycle sweep cannot OOM the recorder; ``dropped``
   counts evictions so truncation is never silent.
3. **Typed records.**  :class:`TraceEvent` is plain data — category,
   name, time, optional duration, free-form args — so exporters
   (:mod:`repro.trace.export`) and summaries (:mod:`repro.trace.summary`)
   need no knowledge of the emitting layer.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.errors import ConfigError


class TraceCategory(str, enum.Enum):
    """The event categories the instrumented layers emit.

    Members are ``str`` subclasses so lookups and exported records can
    use the plain lowercase names interchangeably.
    """

    EPOCH = "epoch"          #: epoch boundaries (Figure 12a's x-axis)
    REALLOC = "realloc"      #: partition decisions applied/suppressed
    MIGRATION = "migration"  #: migration plans, windows and charges
    FAULT = "fault"          #: driver faults by kind (demand/lost/rebalance)
    QOS = "qos"              #: QoS enforcement interventions (Figure 16)
    ARRIVAL = "arrival"      #: open-system job arrival (enters the queue)
    ADMISSION = "admission"  #: open-system job admitted to a slice
    DEPARTURE = "departure"  #: open-system job retired its budget
    PHASE = "phase"          #: host-time simulator phases (PhaseProfiler)
    FLEET = "fleet"          #: fleet-coordinator lifecycle (arrive/admit/...)
    NODE = "node"            #: worker-side node-physics spans (fleet shards)
    HEALTH = "health"        #: fleet health-monitor incidents

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Event kinds: a ``span`` covers ``[time, time + duration)``; an
#: ``instant`` is a point sample.
KIND_INSTANT = "instant"
KIND_SPAN = "span"

_VALID_CATEGORIES = frozenset(c.value for c in TraceCategory)


def _category_value(category: Union[str, TraceCategory]) -> str:
    value = category.value if isinstance(category, TraceCategory) else str(category)
    if value not in _VALID_CATEGORIES:
        raise ConfigError(
            f"unknown trace category {value!r}; known: "
            f"{', '.join(sorted(_VALID_CATEGORIES))}"
        )
    return value


@dataclass(frozen=True)
class TraceEvent:
    """One typed trace record.

    ``time`` and ``duration`` are in GPU cycles (a
    :class:`~repro.profiling.PhaseProfiler` builds its own ``phase``
    timeline in microseconds).  ``seq`` is a recorder-global monotonic
    counter that preserves emission order across same-timestamp events.
    """

    seq: int
    time: float
    category: str
    name: str
    kind: str = KIND_INSTANT
    duration: float = 0.0
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def end_time(self) -> float:
        return self.time + self.duration

    def to_dict(self) -> Dict[str, Any]:
        """A flat, JSON-ready mapping (the JSONL record shape)."""
        record: Dict[str, Any] = {
            "seq": self.seq,
            "ts": self.time,
            "cat": self.category,
            "name": self.name,
            "kind": self.kind,
        }
        if self.duration:
            record["dur"] = self.duration
        if self.args:
            record["args"] = self.args
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "TraceEvent":
        """Inverse of :meth:`to_dict` (the JSONL reader)."""
        return cls(
            seq=int(record["seq"]),
            time=float(record["ts"]),
            category=str(record["cat"]),
            name=str(record["name"]),
            kind=str(record.get("kind", KIND_INSTANT)),
            duration=float(record.get("dur", 0.0)),
            args=dict(record.get("args", {})),
        )


class TraceRecorder:
    """Ring-buffered trace sink shared by the instrumented layers.

    Parameters
    ----------
    capacity:
        Ring-buffer size; the oldest events are dropped (and counted in
        :attr:`dropped`) once full.
    """

    def __init__(self, capacity: int = 65_536) -> None:
        if capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._buffer: deque = deque(maxlen=capacity)
        self._seq = 0
        self.emitted = 0    #: events accepted into the ring
        self.dropped = 0    #: events evicted by ring wraparound

    def __len__(self) -> int:
        return len(self._buffer)

    def emit(
        self,
        category: Union[str, TraceCategory],
        name: str,
        time: float = 0.0,
        duration: float = 0.0,
        kind: Optional[str] = None,
        **args: Any,
    ) -> TraceEvent:
        """Record one event and return it.

        ``kind`` defaults to ``span`` when a duration is given and
        ``instant`` otherwise.
        """
        event = TraceEvent(
            seq=self._seq,
            time=float(time),
            category=_category_value(category),
            name=name,
            kind=kind if kind is not None else (KIND_SPAN if duration else KIND_INSTANT),
            duration=float(duration),
            args=args,
        )
        self._seq += 1
        if len(self._buffer) == self.capacity:
            self.dropped += 1
        self._buffer.append(event)
        self.emitted += 1
        return event

    def absorb(
        self,
        events: Iterable[TraceEvent],
        time_shift: float = 0.0,
        **extra: Any,
    ) -> int:
        """Merge events captured elsewhere (another process) into this ring.

        Each absorbed event is re-sequenced into this recorder's order,
        shifted by ``time_shift`` (e.g. a worker's round-relative cycle
        times re-anchored at the orchestrator's round start), and
        stamped with the ``extra`` correlation args (``run_id`` /
        ``shard_id`` / ``pid`` / ...) — without overriding args the
        worker already set.  The ring bound and counters apply exactly as
        for :meth:`emit`.  Returns the number of events absorbed.
        """
        absorbed = 0
        for event in events:
            args = dict(event.args)
            for key, val in extra.items():
                if val is not None:
                    args.setdefault(key, val)
            merged = TraceEvent(
                seq=self._seq,
                time=event.time + float(time_shift),
                category=_category_value(event.category),
                name=event.name,
                kind=event.kind,
                duration=event.duration,
                args=args,
            )
            self._seq += 1
            if len(self._buffer) == self.capacity:
                self.dropped += 1
            self._buffer.append(merged)
            self.emitted += 1
            absorbed += 1
        return absorbed

    def events(
        self, category: Optional[Union[str, TraceCategory]] = None
    ) -> List[TraceEvent]:
        """The buffered events in emission order, optionally one category."""
        if category is None:
            return list(self._buffer)
        value = _category_value(category)
        return [e for e in self._buffer if e.category == value]

    def clear(self) -> int:
        """Empty the ring (counters keep accumulating); returns count."""
        removed = len(self._buffer)
        self._buffer.clear()
        return removed
