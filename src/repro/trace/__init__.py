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

from repro import _lazy_exports

_EXPORTS = {
    "repro.trace.recorder": (
        "KIND_INSTANT", "KIND_SPAN", "TraceCategory", "TraceEvent",
        "TraceRecorder",
    ),
    "repro.trace.summary": ("TraceSummary", "summarize"),
    "repro.trace.export": (
        "chrome_trace", "read_jsonl", "write_chrome_trace", "write_jsonl",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
