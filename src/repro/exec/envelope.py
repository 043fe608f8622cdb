"""The picklable job envelope: a job's result plus its worker capture.

Since the sweep executor went multi-process, everything that actually
runs — node physics, kernel advancement — happens in pool workers that
cannot share the orchestrator's sinks.  Every job therefore comes back
from :func:`repro.obs.run_job` as a :class:`JobEnvelope`: the result,
its wall seconds, the worker's OS pid, a stable per-process
:func:`worker_token`, and an :class:`ObsSnapshot` of what the job
observed — plain tuples, dicts and dataclasses, so the envelope
pickles.  The snapshot is empty unless the run's :class:`~repro.obs.Obs`
handle is on (:attr:`~repro.obs.Obs.on`);
:meth:`repro.obs.Obs.absorb` folds a run's envelopes back into the
orchestrator's sinks.

The worker token exists because the OS recycles pids: two different
worker processes across rounds may share a pid, and keying trace tracks
on the pid alone would interleave them.  The token is a per-process
UUID (lazily regenerated after a fork), so every process lifetime gets
its own identity.
"""

from __future__ import annotations

import os
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.trace.recorder import TraceEvent

_TOKEN: Optional[Tuple[int, str]] = None


def worker_token() -> str:
    """A stable identity for this process lifetime (survives pid reuse).

    Lazily minted on first use and re-minted if the pid changed (the
    process was forked), so forked pool workers never inherit their
    parent's identity.
    """
    global _TOKEN
    pid = os.getpid()
    if _TOKEN is None or _TOKEN[0] != pid:
        _TOKEN = (pid, uuid.uuid4().hex[:12])
    return _TOKEN[1]


@dataclass(frozen=True)
class ObsSnapshot:
    """Everything one job observed, frozen into picklable plain data."""

    #: Worker trace events, timestamps in the job's native clock domain
    #: (round-relative cycles for fleet shards).
    events: Tuple[TraceEvent, ...] = ()
    #: Events the worker ring evicted (truncation is never silent).
    dropped: int = 0
    #: :func:`~repro.telemetry.merge.snapshot_registry` output.
    metrics: Tuple = ()
    #: :meth:`~repro.profiling.PhaseProfiler.snapshot` output.
    profile: Dict[str, Tuple[int, float]] = field(default_factory=dict)


@dataclass(frozen=True)
class JobEnvelope:
    """One job's result plus its worker-side observability capture."""

    result: Any
    seconds: float
    pid: int
    worker: str
    obs: ObsSnapshot = field(default_factory=ObsSnapshot)
