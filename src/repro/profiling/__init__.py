"""Self-profiling of the simulator's own host time.

:class:`PhaseProfiler` (:mod:`~repro.profiling.profiler`) records
nestable wall-clock spans with self/cumulative attribution; the
runner/HBM/policy/pagemove/driver layers reach it through their
:class:`~repro.obs.Obs` handle, which costs nothing when it holds no
profiler (the host-time sibling of the trace recorder and the metrics
registry).  A ``--report-dir`` run bundle captures
its aggregate, and ``repro inspect`` prints the hot-phase table; the
end-to-end benchmark in ``bench/`` times whole workloads.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.profiling.profiler": ("PhaseProfiler", "PhaseStats"),
}

__all__, __getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
