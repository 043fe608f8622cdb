"""Compare result files of a parent commit and a change.

    python3 bench/run.py compare P1.json C1.json [P2.json C2.json ...]

Arguments alternate parent, change, in the order the runs were made, so
each (parent, change) pair ran back to back.  One row per (workload,
metric): each side's median and quartiles, the change's win fraction over
the pairs (ties count for neither side), and a verdict using the bounds
in BENCHMARK.json:

* ``unresolved`` -- the parent's quartile spread exceeds the bound and
  the two sides' runs interleave; or, for a time, the two sides' speed
  probes (the median of each side's runs) differ by more than the
  bound, so the machine, not the code, may have moved it;
* ``improved`` -- the change wins at least nine tenths of the pairs and
  the medians differ by more than the parent's quartile spread;
* ``worse`` -- the change's median is worse than the parent's by more
  than the bound;
* ``unchanged`` -- otherwise.

Metrics without a bound (the per-layer ones) get no verdict.  Exit code 1
when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: List[float], change: List[float], bound: Optional[float],
            better: str = "lower", drift: float = 0.0) -> Dict[str, object]:
    """Judge one (workload, metric) over paired runs.  ``drift`` is how
    much slower the change's machine ran than the parent's (speed-probe
    ratio minus one); 0 for a metric machine speed does not move."""
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, _, p_q3 = quartiles(parent)
    c_q1, _, c_q3 = quartiles(change)
    iqr = p_q3 - p_q1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    win_frac = wins / min(len(parent), len(change))
    row: Dict[str, object] = {
        "parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
        "win_frac": win_frac, "verdict": "no bound",
    }
    if bound is None:
        return row
    scale = abs(p_med) or 1.0
    better_side = max(sign * c for c in change) < min(sign * p for p in parent)
    worse_side = min(sign * c for c in change) > max(sign * p for p in parent)
    if abs(drift) > bound or (iqr / scale > bound
                              and not (better_side or worse_side)):
        row["verdict"] = "unresolved"
    elif win_frac >= 0.9 and sign * (p_med - c_med) > iqr:
        row["verdict"] = "improved"
    elif sign * (c_med - p_med) / scale > bound:
        row["verdict"] = "worse"
    else:
        row["verdict"] = "unchanged"
    return row


def load(path: Path) -> Tuple[Dict[Tuple[str, str], float], Dict]:
    """(workload, metric) -> value, and the environment stamp, of one
    result file."""
    doc = json.loads(path.read_text())
    out = {}
    for workload, result in doc["workloads"].items():
        for metric, entry in result["metrics"].items():
            out[(workload, metric)] = entry["value"]
        for metric, value in (result.get("layers") or {}).items():
            out[(workload, metric)] = value
    return out, doc["env"]


def probe_ms(envs: List[Dict]) -> float:
    """One side's machine speed: the median of its runs' speed probes."""
    return statistics.median(env["probe_ms_median"] for env in envs)


def describe(envs: List[Dict]) -> str:
    """One side's machine state: backends, load and speed probe."""
    backends = sorted({b for env in envs for b in env.get("backend", [])})
    load = statistics.median(env["loadavg_start"] for env in envs)
    return (f"backend {','.join(backends)}, load {load:.2f}, "
            f"speed probe {probe_ms(envs):.1f} ms")


def compare(parents: List[Dict], changes: List[Dict], spec: Dict[str, Dict],
            drift: float = 0.0) -> List[Dict[str, object]]:
    keys = sorted(set.intersection(*(set(run) for run in parents + changes)))
    rows = []
    for workload, metric in keys:
        entry = spec.get(metric, {})
        row = verdict([run[(workload, metric)] for run in parents],
                      [run[(workload, metric)] for run in changes],
                      entry.get("bound"), entry.get("better", "lower"),
                      drift if entry.get("unit") == "s" else 0.0)
        row.update(workload=workload, metric=metric)
        rows.append(row)
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("files", type=Path, nargs="+",
                        help="result files, alternating parent and change")
    args = parser.parse_args(argv)
    if len(args.files) % 2:
        parser.error("give result files in (parent, change) pairs")
    runs, envs = zip(*(load(path) for path in args.files))
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in config["end_to_end"] + config["per_layer"]}
    drift = probe_ms(envs[1::2]) / probe_ms(envs[0::2]) - 1
    rows = compare(list(runs[0::2]), list(runs[1::2]), spec, drift)
    print(f"{len(runs) // 2} pairs; medians with quartiles [q1, q3]")
    print(f"parent: {describe(envs[0::2])}")
    print(f"change: {describe(envs[1::2])}")
    print(f"speed probe drift {drift:+.1%}: a time whose bound is smaller "
          "is unresolved")
    print(f"{'workload':<13} {'metric':<30} {'parent':>34} {'change':>34} "
          f"{'wins':>5}  verdict")
    for row in rows:
        p_q1, p_med, p_q3 = row["parent"]
        c_q1, c_med, c_q3 = row["change"]
        print(f"{row['workload']:<13} {row['metric']:<30} "
              f"{p_med:>12.6g} [{p_q1:>9.6g}, {p_q3:>9.6g}] "
              f"{c_med:>12.6g} [{c_q1:>9.6g}, {c_q3:>9.6g}] "
              f"{row['win_frac']:>5.2f}  {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0
