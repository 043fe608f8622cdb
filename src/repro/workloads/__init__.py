"""Workload models.

The paper evaluates 15 GPU-compute benchmarks (Table 2) from Rodinia,
Parboil, the CUDA SDK and Mars, plus 5 Tango AI workloads (Section 6.6).
We cannot run CUDA binaries, so each benchmark is modelled by the profile
UGPU's hardware observes: per-kernel peak issue rate, LLC APKI, hit rate
and footprint, pinned to the published Table 2 MPKI / kernel-count /
footprint columns (see DESIGN.md's substitution table).
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.workloads.benchmarks": (
        "BenchmarkSpec", "TABLE2", "MEMORY_BOUND_ABBRS", "COMPUTE_BOUND_ABBRS",
        "catalog", "spec_for", "build_application",
    ),
    "repro.workloads.ai_models": ("AI_MODELS", "build_ai_application"),
    "repro.workloads.mixes": (
        "MultiProgramMix", "heterogeneous_pairs", "homogeneous_pairs",
        "all_pairs", "build_mix", "four_program_mixes", "eight_program_mixes",
    ),
    "repro.workloads.arrivals": (
        "ArrivalEvent", "ArrivalSchedule", "poisson_arrivals",
    ),
    "repro.workloads.synthetic": (
        "streaming_trace", "strided_trace", "hotset_trace", "synthetic_kernel",
    ),
    "repro.workloads.characterize": ("TraceCharacterizer", "TraceProfile"),
}

__all__, __getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
