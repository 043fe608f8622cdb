"""Result aggregation and reporting.

Utilities the experiment harness and downstream users share: a sweep
runner that evaluates policies over workload lists, summary statistics in
the paper's terms (mean/max STP gain, ANTT improvement, QoS floors), and
plain-text / Markdown table rendering for reports like EXPERIMENTS.md.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.analysis.sweep": (
        "PolicySweep", "SweepSummary", "compare_policies",
    ),
    "repro.analysis.report": ("Table", "format_text", "format_markdown"),
    "repro.analysis.ascii_plot": (
        "sparkline", "bar_chart", "compare_sparklines",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
