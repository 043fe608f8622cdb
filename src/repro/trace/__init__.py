"""Simulation tracing & metrics: typed event records for every layer.

The package has three pieces:

* :mod:`repro.trace.recorder` — :class:`TraceRecorder` (ring-buffered,
  zero overhead when absent) and the typed :class:`TraceEvent` /
  :class:`TraceCategory` records;
* :mod:`repro.trace.export` — JSONL round-trip plus a
  ``chrome://tracing`` / Perfetto exporter;
* :mod:`repro.trace.summary` — derived metrics (fault rate per epoch,
  migration stall fraction, reallocation cadence).

Quickstart::

    from repro import MultitaskSystem, Obs, UGPUPolicy, build_mix
    from repro.trace import TraceRecorder, summarize, write_chrome_trace

    tracer = TraceRecorder()
    system = MultitaskSystem(build_mix(["PVC", "DXTC"]).applications,
                             policy=UGPUPolicy(), obs=Obs(tracer))
    system.run(25_000_000)
    print(summarize(tracer.events()).format())
    write_chrome_trace(tracer.events(), "ugpu.chrome.json")  # open in Perfetto
"""

from repro.trace.export import (
    chrome_trace,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.trace.recorder import (
    KIND_INSTANT,
    KIND_SPAN,
    TraceCategory,
    TraceEvent,
    TraceRecorder,
)
from repro.trace.summary import TraceSummary, summarize

__all__ = [
    "KIND_INSTANT",
    "KIND_SPAN",
    "TraceCategory",
    "TraceEvent",
    "TraceRecorder",
    "TraceSummary",
    "chrome_trace",
    "read_jsonl",
    "summarize",
    "write_chrome_trace",
    "write_jsonl",
]
