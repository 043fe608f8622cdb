#!/usr/bin/env python3
"""ASCII dashboard over a telemetry CSV: watch an open-system run settle.

The :mod:`repro.telemetry` CSV sampler appends one row per live metric
series at every epoch boundary.  This script tails that file and renders
the open-system headlines — wait-queue depth, resident jobs, mean
queueing delay, per-epoch fault and event rates — as shared-scale
sparklines via the existing :mod:`repro.analysis.ascii_plot` module.

Produce a series file (the run and the dashboard can share a terminal
or run side by side)::

    python -m repro arrivals --seed 0 --metrics-csv series.csv
    python examples/live_dashboard.py series.csv

Pass ``--follow`` to re-read and re-render every interval while a long
run is still appending (a torn final row from a mid-write read is
skipped, not fatal)::

    python examples/live_dashboard.py series.csv --follow --interval 2

``--once`` renders a single frame and exits — for scripts and CI.
"""

import argparse
import sys
import time

from repro.analysis.ascii_plot import compare_sparklines, sparkline
from repro.telemetry import read_provenance, read_series, series_values


def _deltas(pairs):
    """Per-epoch increments of a cumulative (epoch, value) series."""
    out = []
    previous = 0.0
    for epoch, value in pairs:
        out.append((epoch, value - previous))
        previous = value
    return out


def _sum_over_labels(rows, metric):
    """Collapse a labeled family into one (epoch, total) series."""
    totals = {}
    for row in rows:
        if row.metric == metric:
            totals[row.epoch] = totals.get(row.epoch, 0.0) + row.value
    return sorted(totals.items())


def _mean_series(rows, metric):
    """Cumulative mean of a histogram: ``_sum`` / ``_count`` per epoch."""
    sums = dict(series_values(rows, f"{metric}_sum"))
    counts = dict(series_values(rows, f"{metric}_count"))
    return [
        (epoch, sums[epoch] / counts[epoch])
        for epoch in sorted(sums)
        if counts.get(epoch, 0.0) > 0
    ]


def render(path) -> bool:
    # Tolerant parsing: a live run may be appending while we read, so a
    # torn final row (or an empty line from a mid-write flush) is
    # expected, not an error.
    rows = read_series(path, strict=False)
    if not rows:
        print(f"{path}: no samples yet")
        return False
    provenance = read_provenance(path)
    epochs = sorted({row.epoch for row in rows})
    stamp = " ".join(
        f"{key}={provenance[key]}"
        for key in ("policy", "seed", "git_sha")
        if key in provenance
    )
    print(f"{path}: {len(rows)} samples over {len(epochs)} epochs  {stamp}\n")

    gauges = {
        "wait queue": series_values(rows, "repro_open_wait_queue_depth"),
        "resident": series_values(rows, "repro_open_resident_jobs"),
    }
    gauges = {label: s for label, s in gauges.items() if s}
    if gauges:
        print("open system (gauge per epoch):")
        print(compare_sparklines(
            {label: [v for _, v in s] for label, s in gauges.items()}))
        print()

    delay = _mean_series(rows, "repro_open_queueing_delay_cycles")
    if delay:
        values = [v for _, v in delay]
        print(f"mean queueing delay (cycles, cumulative): "
              f"{sparkline(values)} last={values[-1]:,.0f}")

    rates = {
        "faults/epoch": _deltas(_sum_over_labels(rows, "repro_vm_faults_total")),
        "pages/epoch": _deltas(
            _sum_over_labels(rows, "repro_migration_pages_total")),
    }
    rates = {label: s for label, s in rates.items() if s}
    if rates:
        print("\nper-epoch rates (delta of cumulative counters):")
        for label, series in rates.items():
            values = [v for _, v in series]
            print(f"  {label:<13} {sparkline(values)} "
                  f"[{min(values):,.0f}..{max(values):,.0f}]")
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("csv", help="series file from --metrics-csv")
    parser.add_argument("--follow", action="store_true",
                        help="re-render every --interval seconds")
    parser.add_argument("--once", action="store_true",
                        help="render a single frame and exit (overrides "
                             "--follow; handy for scripts and CI)")
    parser.add_argument("--interval", type=float, default=2.0,
                        help="refresh period in seconds (default: 2)")
    args = parser.parse_args()

    if args.once or not args.follow:
        return 0 if render(args.csv) else 1
    try:
        while True:
            sys.stdout.write("\x1b[2J\x1b[H")  # clear screen, home cursor
            render(args.csv)
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
