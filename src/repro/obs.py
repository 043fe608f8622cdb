"""One observability handle: trace, metrics and phases behind ``obs=``.

The simulator reports into three sinks: the trace recorder
(:mod:`repro.trace`, *when* something happened, to which job, on which
node), the metrics registry (:mod:`repro.telemetry`, *how much*) and
the phase profiler (:mod:`repro.profiling`, *where host time went*).
An :class:`Obs` owns all three, and every instrumented component takes
it as one ``obs`` argument:

* ``obs.emit(category, name, time=..., duration=..., **args)`` reports
  one fact, once: the recorder keeps the event and the registry folds
  it (:func:`repro.telemetry.bridge.fold_event`, the fold ``repro
  metrics`` runs over a trace), so the trace is the run's one event
  log;
* ``obs.declare(*categories)`` creates the metric families an
  emitter's categories fold into, so they export at zero from the start;
* ``obs.metric(names.policy_stp)`` declares a family for a fact no event
  carries and returns it (the shared no-op metric without a registry);
* ``obs.begin(name)`` / ``obs.end(name)`` / ``with obs.span(name)``
  time a host phase.

Each call goes to its sink, or to a no-op when the handle lacks that
sink, so instrumented code never tests a sink itself.  :data:`OFF`, the
default everywhere, has no sinks; its ``emit`` is the shared no-op.
Off stays free: on a hot path (per epoch, fault, request or node) the
caller makes one ``if obs.on:`` test before it builds event arguments.

Worker capture follows one rule, :attr:`Obs.on`: a run captures its
jobs' observations exactly when its handle has a sink.  :func:`run_job`
is the executor's one worker entry point.  It runs a job under a fresh
capture handle (or :data:`OFF`) and returns a
:class:`~repro.exec.envelope.JobEnvelope` whose snapshot is empty when
capture is off; :meth:`Obs.absorb` folds a run's envelopes back into
the orchestrator's sinks in job order; absorbed events are not folded
again, as the worker's registry snapshot holds their metrics.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from typing import Any, Callable, Optional, Sequence, Tuple

#: Ring-buffer bound for the per-job worker recorder.  A fleet shard
#: emits one span per node plus one per tenant; 16Ki leaves headroom
#: for two orders of magnitude more without letting a runaway job OOM
#: the pool.
WORKER_TRACE_CAPACITY = 16_384


def _noop(*_args, **_kwargs) -> None:
    return None


def _emitter(recorder, registry):
    """The handle's ``emit``: the recorder's own method when it is the
    only event sink, else one function that hands each event to the
    recorder and the registry."""
    record = recorder.emit if recorder is not None else None
    if registry is None:
        return record or _noop
    from repro.telemetry.bridge import fold_event

    def emit(category, name, time=0.0, duration=0.0, **args):
        if record is not None:
            record(category, name, time, duration, **args)
        fold_event(registry, category, name, duration, args)

    return emit


class _NullMetric:
    """Accepts every metric operation and does nothing."""

    __slots__ = ()
    value = 0.0
    sum = 0.0
    count = 0

    def labels(self, *values, **kwargs) -> "_NullMetric":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


#: The family every :meth:`Obs.metric` call returns on a handle without
#: a registry, so constructors can cache children unconditionally.
NULL_METRIC = _NullMetric()


_NULL_SPAN = nullcontext()


class Obs:
    """The trace recorder, metrics registry and phase profiler of one
    run, any of which may be absent.

    ``on`` is true when the handle has at least one sink; it is also
    the capture rule, as every sink is one a worker capture feeds.
    """

    __slots__ = ("recorder", "registry", "profiler", "on", "emit",
                 "begin", "end")

    def __init__(self, recorder=None, registry=None, profiler=None) -> None:
        self.recorder = recorder
        self.registry = registry
        self.profiler = profiler
        self.on = any(
            sink is not None for sink in (recorder, registry, profiler)
        )
        self.emit = _emitter(recorder, registry)
        self.begin = profiler.begin if profiler is not None else _noop
        self.end = profiler.end if profiler is not None else _noop

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def span(self, name: str):
        """Context-manager form of :meth:`begin` / :meth:`end`."""
        if self.profiler is None:
            return _NULL_SPAN
        return self.profiler.span(name)

    def metric(self, family: Callable[[Any], Any]):
        """``family(registry)`` (a :mod:`repro.telemetry.names` factory),
        or the shared no-op metric when the handle has no registry.

        Families appear in the exposition in declaration order, so a
        component declares its families where it did before it took a
        handle: in its constructor, or lazily at first use.
        """
        if self.registry is None:
            return NULL_METRIC
        return family(self.registry)

    def declare(self, *categories: str) -> None:
        """Create the metric families ``categories``' events fold into,
        at zero (:func:`repro.telemetry.bridge.declare`).  An emitter
        declares its categories when it is built, so its families export
        before its first event."""
        if self.registry is not None:
            from repro.telemetry.bridge import declare

            declare(self.registry, *categories)

    def epoch_boundary(self, epoch_index: int, cycle: float) -> None:
        """Fire the registry's epoch observers (the CSV sampler)."""
        if self.registry is not None:
            self.registry.epoch_boundary(epoch_index, cycle)

    def fold_exec_stats(self, stats) -> None:
        """Count one executor run's jobs, job seconds and wall seconds
        (:func:`repro.telemetry.fold_exec_stats`)."""
        if self.registry is not None:
            from repro.telemetry.bridge import fold_exec_stats

            fold_exec_stats(self.registry, stats)

    def gauge_trace_drops(self) -> None:
        """Export the recorder's ring-buffer drops, absorbed worker drops
        included, as a gauge; called once, where the exports are
        written."""
        if self.registry is not None and self.recorder is not None:
            from repro.telemetry import names

            names.trace_dropped_events(self.registry).set(self.recorder.dropped)

    # ------------------------------------------------------------------
    # Worker capture
    # ------------------------------------------------------------------
    def absorb(self, envelopes: Sequence, *, prefix: Tuple[str, ...],
               shard_prefix: str, time_shift: float = 0.0,
               run_id: Optional[str] = None) -> int:
        """Fold worker captures into this handle's sinks, in job order.

        Job ``i``'s trace events are shifted by ``time_shift`` and
        stamped with ``run_id``, ``shard_id=f"{shard_prefix}{i}"`` and
        the worker's ``pid`` and token, and the events its worker ring
        dropped add to the recorder's ``dropped``; its metrics merge
        into the registry (the absorbed events are not folded again);
        its phases graft under ``prefix``.  A sweep uses
        ``("worker",)`` and ``"job"``; a fleet round
        ``("fleet.execute",)`` and ``f"r{round}.s"`` with the round's
        start cycle as the shift.  Merging in job order keeps serial and
        sharded runs byte-identical.  Returns the trace events absorbed.
        """
        if not self.on:
            return 0
        from repro.telemetry.merge import merge_registry

        absorbed = 0
        for index, envelope in enumerate(envelopes):
            snapshot = envelope.obs
            if self.recorder is not None:
                self.recorder.dropped += snapshot.dropped
            if self.recorder is not None and snapshot.events:
                absorbed += self.recorder.absorb(
                    snapshot.events,
                    time_shift=time_shift,
                    run_id=run_id,
                    shard_id=f"{shard_prefix}{index}",
                    pid=envelope.pid,
                    worker=envelope.worker,
                )
            if self.registry is not None and snapshot.metrics:
                merge_registry(self.registry, snapshot.metrics)
            if self.profiler is not None and snapshot.profile:
                self.profiler.absorb(snapshot.profile, prefix=prefix)
        return absorbed


#: The handle with no sinks: the default ``obs`` everywhere.
OFF = Obs()


def run_job(job, capture: bool = False):
    """Run ``job`` in this process and envelope its result.

    The executor's one worker entry point, in or out of process.  With
    ``capture`` (the executor passes its run handle's :attr:`Obs.on`)
    the job runs under a fresh handle — a bounded recorder, a registry
    and a profiler — and the envelope carries what it observed, frozen
    into a picklable :class:`~repro.exec.envelope.ObsSnapshot`;
    otherwise the job runs under :data:`OFF` and the snapshot is empty.
    """
    from repro.exec.envelope import JobEnvelope, ObsSnapshot, worker_token

    obs = _capture_handle() if capture else OFF
    start = time.perf_counter()
    with obs.span("worker.job"):
        result = job.run(obs=obs)
    seconds = time.perf_counter() - start
    snapshot = ObsSnapshot()
    if capture:
        from repro.telemetry.merge import snapshot_registry

        snapshot = ObsSnapshot(
            events=tuple(obs.recorder.events()),
            dropped=obs.recorder.dropped,
            metrics=tuple(snapshot_registry(obs.registry)),
            profile=obs.profiler.snapshot(),
        )
    return JobEnvelope(
        result=result, seconds=seconds, pid=os.getpid(),
        worker=worker_token(), obs=snapshot,
    )


def _capture_handle() -> Obs:
    from repro.profiling.profiler import PhaseProfiler
    from repro.telemetry.metrics import MetricsRegistry
    from repro.trace.recorder import TraceRecorder

    return Obs(TraceRecorder(capacity=WORKER_TRACE_CAPACITY),
               MetricsRegistry(), PhaseProfiler())
