"""Multi-program performance metrics and the energy model.

STP and ANTT follow Eyerman & Eeckhout's definitions (paper Equations 3-4);
the energy model reproduces the aggregate splits of Figure 12b.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.metrics.multiprogram": (
        "AppRun", "IntervalRun", "stp", "antt", "interval_stp",
        "interval_antt", "mean_queueing_delay", "makespan",
        "normalized_progress", "summarize",
    ),
    "repro.metrics.energy": ("EnergyModel", "EnergyBreakdown"),
    "repro.metrics.fairness": (
        "fairness_index", "harmonic_mean_np", "jains_index",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
