"""Deterministic phase profiler for the simulator's own hot paths.

The repo observes the *simulated* GPU well (:mod:`repro.trace`,
:mod:`repro.telemetry`); :class:`PhaseProfiler` observes the *simulator*:
which phases of an epoch — throughput evaluation, the partitioning
algorithm, migration costing, fault handling — actually burn host wall
time.  ``--report-dir`` run bundles capture its aggregate for
``repro inspect``, and the end-to-end benchmark's traced pass
(``bench/tracing.py``) records through it.

Design constraints mirror :class:`repro.trace.TraceRecorder`, in order:

1. **Zero overhead when absent.**  Every instrumented component reaches
   the profiler through its :class:`~repro.obs.Obs` handle, off by
   default, and hot paths guard each span with one ``obs.on`` test, so
   unprofiled simulations run the same instructions they ran before
   instrumentation.
2. **Deterministic attribution.**  Phases are identified by the *stack
   of names* active when they ran (``("epoch", "epoch.policy")``), so
   the aggregation tree is identical across runs; only the measured
   seconds vary.  The clock is injectable (tests pass a fake counter and
   get exact arithmetic).
3. **Self vs cumulative.**  A node's cumulative time covers its whole
   span; its self time subtracts the cumulative time of its direct
   children — the flat table sorts by self time, which is where an
   optimization actually lands.

Span recording is begin/end based rather than context-manager-only: the
hot loops guard ``obs.begin(...)``/``obs.end(...)`` behind one
``obs.on`` branch with no generator or ``with``-frame overhead.
:meth:`PhaseProfiler.span` wraps the same pair for ergonomic call sites::

    with profiler.span("hbm.service_requests"):
        controller.drain()

Every completed span is also kept (ring-buffered) as a raw event so the
profile exports to the Chrome-trace format via the existing
:mod:`repro.trace.export` machinery and loads in Perfetto.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.trace.export import write_chrome_trace
from repro.trace.recorder import KIND_SPAN, TraceEvent


@dataclass
class PhaseStats:
    """Aggregated timing of one phase name (flat view) or path (tree view)."""

    name: str
    calls: int = 0
    cum_seconds: float = 0.0
    self_seconds: float = 0.0

    @property
    def per_call_seconds(self) -> float:
        return self.cum_seconds / self.calls if self.calls else 0.0


@dataclass
class _Node:
    """Per-path accumulator: calls and cumulative seconds."""

    calls: int = 0
    cum_seconds: float = 0.0


class _Span:
    """Reusable context manager around one profiler + name pair."""

    __slots__ = ("_profiler", "_name")

    def __init__(self, profiler: "PhaseProfiler", name: str) -> None:
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "_Span":
        self._profiler.begin(self._name)
        return self

    def __exit__(self, *exc) -> None:
        self._profiler.end(self._name)


class PhaseProfiler:
    """Nestable wall-clock phase spans with self/cumulative attribution.

    Parameters
    ----------
    clock:
        Monotonic seconds source (default :func:`time.perf_counter`).
        Tests inject a fake counter for exact span arithmetic.
    events_capacity:
        Ring-buffer size for raw span events (the Chrome-trace export);
        the oldest spans are dropped (and counted in :attr:`dropped`)
        once full.  Aggregated statistics are never dropped.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 events_capacity: int = 262_144) -> None:
        if events_capacity < 1:
            raise SimulationError(
                f"events_capacity must be >= 1, got {events_capacity}"
            )
        self._clock = clock
        #: Aggregation keyed by the full name stack at begin() time.
        self._nodes: Dict[Tuple[str, ...], _Node] = {}
        #: Open spans: (name, start_seconds) in nesting order.
        self._stack: List[Tuple[str, float]] = []
        self._events: deque = deque(maxlen=events_capacity)
        self._origin: Optional[float] = None
        self._seq = 0
        self.dropped = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self, name: str) -> None:
        """Open a span; must be closed by :meth:`end` with the same name."""
        now = self._clock()
        if self._origin is None:
            self._origin = now
        self._stack.append((name, now))

    def end(self, name: str) -> float:
        """Close the innermost span; returns its duration in seconds.

        Raises :class:`SimulationError` on mismatched nesting — a
        mismatch means the instrumentation itself is wrong, and silent
        misattribution would poison every report downstream.
        """
        now = self._clock()
        if not self._stack:
            raise SimulationError(f"end({name!r}) with no open span")
        opened, start = self._stack.pop()
        if opened != name:
            raise SimulationError(
                f"mismatched span nesting: end({name!r}) while "
                f"{opened!r} is innermost"
            )
        duration = now - start
        path = tuple(n for n, _ in self._stack) + (name,)
        node = self._nodes.get(path)
        if node is None:
            node = self._nodes[path] = _Node()
        node.calls += 1
        node.cum_seconds += duration
        if len(self._events) == self._events.maxlen:
            self.dropped += 1
        self._events.append((self._seq, path, start, duration))
        self._seq += 1
        return duration

    def span(self, name: str) -> _Span:
        """Context manager form of :meth:`begin`/:meth:`end`."""
        return _Span(self, name)

    # ------------------------------------------------------------------
    # Cross-process snapshot / merge
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Tuple[int, float]]:
        """The aggregation as a picklable ``path -> (calls, cum)`` mapping.

        Paths are ``"/"``-joined (phase names never contain ``/`` by
        convention — the Chrome exporter already relies on that for its
        ``path`` arg).  Raw span events are deliberately excluded: the
        aggregate is what merges deterministically across processes.
        """
        self._check_closed()
        return {
            "/".join(path): (node.calls, node.cum_seconds)
            for path, node in self._nodes.items()
        }

    def absorb(self, snapshot: Dict[str, Tuple[int, float]],
               prefix: Tuple[str, ...] = ()) -> None:
        """Fold a worker's :meth:`snapshot` into this profiler.

        ``prefix`` grafts the worker's paths under an orchestrator span
        (e.g. ``("fleet.execute",)``) so worker phases appear as
        children of the span that dispatched them.  Iteration is sorted
        by path so the merged node order — and therefore report order —
        is deterministic regardless of worker scheduling.  Callable
        mid-span: absorbing touches only the aggregation, never the
        stack.
        """
        prefix = tuple(prefix)
        for path_str, (calls, cum) in sorted(snapshot.items()):
            path = prefix + tuple(path_str.split("/"))
            node = self._nodes.get(path)
            if node is None:
                node = self._nodes[path] = _Node()
            node.calls += int(calls)
            node.cum_seconds += float(cum)

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def _check_closed(self) -> None:
        if self._stack:
            open_names = " > ".join(n for n, _ in self._stack)
            raise SimulationError(
                f"cannot report with open spans: {open_names}"
            )

    def tree(self) -> Dict[Tuple[str, ...], PhaseStats]:
        """Per-path stats; self time subtracts direct children's cum."""
        self._check_closed()
        out: Dict[Tuple[str, ...], PhaseStats] = {}
        for path, node in self._nodes.items():
            out[path] = PhaseStats(
                name=path[-1], calls=node.calls,
                cum_seconds=node.cum_seconds, self_seconds=node.cum_seconds,
            )
        for path, node in self._nodes.items():
            if len(path) > 1:
                parent = out.get(path[:-1])
                if parent is not None:
                    parent.self_seconds -= node.cum_seconds
        return out

    def flat(self) -> List[PhaseStats]:
        """Per-name stats aggregated over every path, sorted by self time.

        Cumulative time for a name only counts paths where the name does
        not also appear as an ancestor, so a recursive phase is not
        double-counted.
        """
        tree = self.tree()
        by_name: Dict[str, PhaseStats] = {}
        for path, stats in tree.items():
            name = path[-1]
            agg = by_name.get(name)
            if agg is None:
                agg = by_name[name] = PhaseStats(name=name)
            agg.calls += stats.calls
            agg.self_seconds += stats.self_seconds
            if name not in path[:-1]:
                agg.cum_seconds += stats.cum_seconds
        return sorted(
            by_name.values(), key=lambda s: (-s.self_seconds, s.name)
        )

    def total_seconds(self) -> float:
        """Cumulative seconds of the root spans.

        A root is any path whose parent is not recorded: besides the
        top-level spans, that covers snapshots :meth:`absorb` grafted
        under a prefix no span of this profiler recorded (a sweep's
        ``("worker",)``).
        """
        return sum(
            node.cum_seconds
            for path, node in self._nodes.items()
            if path[:-1] not in self._nodes
        )

    def format_table(self, top: int = 15, sort: str = "self") -> str:
        """The hot-phase table ``repro inspect`` prints.

        ``sort`` is ``"self"`` (default — where time is actually spent)
        or ``"cum"`` (inclusive, call-graph order).
        """
        if sort not in ("self", "cum"):
            raise SimulationError(f"sort must be 'self' or 'cum', got {sort!r}")
        rows = self.flat()
        if sort == "cum":
            rows = sorted(rows, key=lambda s: (-s.cum_seconds, s.name))
        total = self.total_seconds()
        lines = [
            f"{'phase':<28} {'calls':>9} {'self':>10} {'cum':>10} "
            f"{'self%':>6} {'per-call':>10}"
        ]
        for stats in rows[:top]:
            share = stats.self_seconds / total if total > 0 else 0.0
            lines.append(
                f"{stats.name:<28} {stats.calls:>9} "
                f"{stats.self_seconds * 1e3:>8.2f}ms "
                f"{stats.cum_seconds * 1e3:>8.2f}ms "
                f"{share:>6.1%} {stats.per_call_seconds * 1e6:>8.2f}us"
            )
        if len(rows) > top:
            lines.append(f"... {len(rows) - top} more phases")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Chrome-trace export (loads in chrome://tracing and Perfetto)
    # ------------------------------------------------------------------
    def trace_events(self) -> List[TraceEvent]:
        """The recorded spans as ``phase``-category trace events.

        Timestamps are microseconds since the first span opened, so the
        standard exporter renders them 1:1 (its cycle→µs division is
        driven by ``clock_ghz=0.001``, i.e. one "cycle" per µs).
        """
        self._check_closed()
        origin = self._origin if self._origin is not None else 0.0
        events = []
        for seq, path, start, duration in self._events:
            events.append(TraceEvent(
                seq=seq,
                time=(start - origin) * 1e6,
                category="phase",
                name=path[-1],
                kind=KIND_SPAN,
                duration=duration * 1e6,
                args={"depth": len(path) - 1, "path": "/".join(path)},
            ))
        return events

    def write_chrome_trace(self, path) -> int:
        """Export the span timeline; returns the trace-record count."""
        return write_chrome_trace(self.trace_events(), path, clock_ghz=0.001)
