"""Self-profiling of the simulator's own host time.

:class:`PhaseProfiler` (:mod:`~repro.profiling.profiler`) records
nestable wall-clock spans with self/cumulative attribution, threaded
through the runner/engine/HBM/policy/pagemove/driver layers as
zero-overhead ``profiler=None`` hooks (the host-time sibling of
``tracer=`` / ``metrics=``).  A ``--report-dir`` run bundle captures
its aggregate, and ``repro inspect`` prints the hot-phase table; the
end-to-end benchmark in ``bench/`` times whole workloads.
"""

from repro.profiling.profiler import PhaseProfiler, PhaseStats

__all__ = ["PhaseProfiler", "PhaseStats"]
