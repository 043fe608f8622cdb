#!/usr/bin/env python3
"""Generate a Markdown evaluation report with the analysis toolkit.

Sweeps five slicing policies over a workload sample and renders the
comparison as both a terminal table and a Markdown file — the same
machinery EXPERIMENTS.md-style reports are built from.  The sweep fans
out over every CPU core.

Run:  python examples/full_report.py [output.md]
"""

import os
import sys

from repro.analysis import compare_policies, format_markdown, format_text
from repro.exec import SweepExecutor
from repro.workloads import heterogeneous_pairs


def main() -> None:
    # A representative sample keeps this example fast; pass all 50 pairs
    # for the full Figure 10 sweep.
    workloads = heterogeneous_pairs()[::5]

    # Registry names let the executor ship jobs to worker processes.
    policies = {
        "BP": "bp",
        "MPS": "mps",
        "BP(CD-Search)": "cd-search",
        "UGPU-Ori": "ugpu-ori",
        "UGPU": "ugpu",
    }
    executor = SweepExecutor(jobs=os.cpu_count() or 1)
    table, summaries = compare_policies(
        policies, workloads, baseline="BP", total_cycles=25_000_000,
        executor=executor,
    )

    print(format_text(table))
    print()
    gain = summaries["UGPU"].stp_gain_over(summaries["BP"])
    print(f"UGPU mean STP gain over BP: {gain:+.1%} "
          f"(paper: +34.3% over the full 50-mix sweep)")
    print(executor.stats.format())

    if len(sys.argv) > 1:
        with open(sys.argv[1], "w") as handle:
            handle.write(format_markdown(table) + "\n")
        print(f"Markdown report written to {sys.argv[1]}")


if __name__ == "__main__":
    main()
