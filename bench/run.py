"""End-to-end benchmark of the UGPU simulator: four workloads, per-layer
attribution from a separate traced pass, golden-checked outputs.

Run from the repository root::

    python3 bench/run.py                          # all workloads, seed 0
    python3 bench/run.py --workload paper --seed 3
    python3 bench/run.py --workload fleet_sparse --trace 1
    python3 bench/run.py compare PARENT.json CHANGE.json [P2.json C2.json ...]
    python3 bench/run.py record --seed 0 1        # re-record bench/golden/

Each pass runs in a fresh interpreter (``bench/worker.py``) with
``PYTHONPATH=<repo>/src`` and ``REPRO_CACHE_DIR`` in a throw-away
directory, so import cost and empty memo caches are paid every pass, as
users pay them.  Passes repeat until ``run_seconds`` (BENCHMARK.json) of
measuring have elapsed (at least one); ``--seconds``, which the
benchmark's command line carries, must equal it.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer ones).  A result file with every sample and an environment
stamp goes to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from worker import monotonic
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden"

#: End-to-end metrics with their units (bounds live in BENCHMARK.json).
E2E_METRICS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
#: Units of every metric printed, the informational latency ones included.
UNITS = {**E2E_METRICS, "op_ms_p50": "ms", "op_ms_p90": "ms"}

#: setup_s is a median over at least this many fresh-process set-ups.
MIN_SETUPS = 7
#: No single pass may run longer than this.
PASS_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def speed_probe_ms() -> float:
    """Median time of a fixed pure-Python loop.  Other tenants of a shared
    host can slow every process down without showing in the load average;
    this reading, taken at the start, after every pass and at the end,
    lets ``compare`` see that two sides ran on a machine of different
    speed."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i % 7
        times.append(time.perf_counter() - start)
    return 1000 * statistics.median(times)


def spawn(workload: str, seed: int, scratch: Path, *, setup_only: bool = False,
          trace_dir: Optional[Path] = None,
          baseline_wall: Optional[float] = None) -> Dict[str, Any]:
    """Run one pass in a fresh interpreter; returns its JSON payload."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["REPRO_CACHE_DIR"] = str(scratch / "cache")
    env["TMPDIR"] = str(scratch)
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", workload, "--seed", str(seed)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_dir is not None:
        cmd += ["--trace", str(trace_dir), "--baseline-wall", repr(baseline_wall)]
    cmd += ["--t0", repr(monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The pass and any pool workers it started share one process group.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} pass exceeded {PASS_TIMEOUT_S} s") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(err.strip().splitlines()[-15:])
        raise BenchError(f"{workload} pass exited {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def load_golden(seed: int) -> Dict[str, Any]:
    path = GOLDEN / f"seed{seed}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def judge(passes: List[Dict[str, Any]],
          reference: Optional[List[Optional[str]]]) -> List[Dict[int, str]]:
    """Failed ops of each pass: raised, failed an invariant, or produced a
    fingerprint other than the reference (golden, else the first pass)."""
    if reference is None:
        reference = passes[0]["fingerprints"]
        source = "first pass"
    else:
        source = "golden"
    verdicts = []
    for payload in passes:
        bad = {int(k): v for k, v in payload["failures"].items()}
        for index, fp in enumerate(payload["fingerprints"]):
            expected = reference[index] if index < len(reference) else None
            if fp != expected and index not in bad:
                bad[index] = f"fingerprint {fp} != {source} {expected}"
        verdicts.append(bad)
    return verdicts


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scratch: Path, out_dir: Path) -> Dict[str, Any]:
    started = monotonic()
    passes: List[Dict[str, Any]] = []
    probes: List[float] = []
    while not passes or monotonic() - started < seconds:
        passes.append(spawn(name, seed, scratch))
        probes.append(speed_probe_ms())
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(name, seed, scratch, setup_only=True)["setup_s"])
    # An op is the same deterministic work in every pass and interference
    # from other tenants of the machine only ever adds time, so an op's
    # fastest pass is its cost with the least interference.
    op_best = [min(times) for times in zip(*(p["op_seconds"] for p in passes))]
    pass_walls = [sum(p["op_seconds"]) for p in passes]
    traced = None
    if trace:
        traced = spawn(name, seed, scratch,
                       trace_dir=out_dir / f"trace-{name}-seed{seed}",
                       baseline_wall=statistics.median(pass_walls))

    golden = load_golden(seed).get(name)
    judged = passes + ([traced] if traced else [])
    verdicts = judge(judged, golden["fingerprints"] if golden else None)
    attempted = sum(len(p["fingerprints"]) for p in judged)
    failed = sum(len(v) for v in verdicts)
    failures = [f"{p['labels'][i]}: {reason}"
                for p, bad in zip(judged, verdicts)
                for i, reason in sorted(bad.items())]

    rss = [p["maxrss_kb"] / 1024 for p in passes]
    metrics = {
        "wall_s": (sum(op_best),
                   f"sum of per-op minima over {len(passes)} passes"),
        "setup_s": (statistics.median(setups),
                    f"median of {len(setups)} set-ups"),
        "peak_rss_mb": (statistics.median(rss),
                        f"median of {len(passes)} passes"),
    }
    # Latency percentiles need ten samples beyond them: only the paper
    # workload has enough ops per pass.  Its p99 (18 ops beyond) moved by
    # more than a tenth between same-code run sets, so the tail is p90.
    if len(op_best) >= 1000:
        for q in (50, 90):
            metrics[f"op_ms_p{q}"] = (
                1000 * percentile(op_best, q),
                f"over {len(op_best)} per-op minima, {len(passes)} passes")
    return {
        "metrics": {m: {"value": value, "unit": UNITS[m], "samples": how}
                    for m, (value, how) in metrics.items()},
        "pass_walls": pass_walls,
        "probe_ms": probes,
        "setups": setups,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": failures[:20],
        "golden": bool(golden),
        "backend": passes[0]["backend"],
        "report": passes[0].get("report", []),
        "layers": traced["layers"] if traced else None,
        "traced_wall_s": sum(traced["op_seconds"]) if traced else None,
        "spans_dropped": traced["spans_dropped"] if traced else None,
    }


def print_workload(name: str, result: Dict[str, Any]) -> None:
    for metric, entry in result["metrics"].items():
        print(f"{name:<13} {metric:<16} {entry['value']:>14.6f} "
              f"{entry['unit']:<6} ({entry['samples']})")
    print(f"{name:<13} {'failed_frac':<16} {result['failed_frac']:>14.6f} "
          f"{'ratio':<6} (base: {result['attempted']} ops attempted; "
          f"fingerprints vs {'golden' if result['golden'] else 'first pass'})")
    for line in result["failures"]:
        print(f"{name:<13} FAILED {line}")
    for row in result["report"]:
        if "paper" in row:
            value = (f"{row['value']:+.1%}" if row["unit"] == "pct"
                     else f"{row['value']}")
            print(f"{name:<13} fidelity  {row['name']:<32} {value:>8}   "
                  f"paper {row['paper']:<10} EXPERIMENTS.md {row['experiments']}")
        else:
            print(f"{name:<13} result    " + json.dumps(row, sort_keys=True))
    if any("paper" in row for row in result["report"]):
        print(f"{name:<13} fidelity  (analytic model; not validated against "
              "GPU hardware)")
    layers = result["layers"]
    if layers:
        import tracing

        for metric, unit in tracing.LAYER_METRICS.items():
            print(f"{name:<13} {metric:<30} {layers[metric]:>14.6f} {unit}")
        attributed = sum(layers[f"{layer}.self_s"] for layer in tracing.LAYERS)
        print(f"{name:<13} sum check: layer self {attributed:.6f} s + "
              f"unattributed {layers['unattributed_s']:.6f} s = "
              f"{attributed + layers['unattributed_s']:.6f} s; traced op wall "
              f"{result['traced_wall_s']:.6f} s; {result['spans_dropped']} "
              "spans dropped")


def git_stamp() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                               text=True, capture_output=True,
                               timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return (sha or "unknown") + ("-dirty" if dirty else "")


def record(argv: List[str]) -> int:
    """Re-record the golden fingerprints from one pass per workload."""
    parser = argparse.ArgumentParser(prog="run.py record")
    parser.add_argument("--seed", type=int, nargs="+", default=[0, 1])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="tmp-", dir=out))
    try:
        for seed in args.seed:
            golden = load_golden(seed)
            for name in args.workload or WORKLOADS:
                payload = spawn(name, seed, scratch)
                if payload["failures"]:
                    raise BenchError(f"{name} seed {seed}: {payload['failures']}")
                golden[name] = {"fingerprints": payload["fingerprints"],
                                "report": payload["report"]}
                print(f"recorded {name} seed {seed}: "
                      f"{len(payload['fingerprints'])} ops")
            GOLDEN.mkdir(exist_ok=True)
            (GOLDEN / f"seed{seed}.json").write_text(
                json.dumps(golden, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        import compare

        return compare.main(argv[1:])
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"bench: no simulator sources at {ROOT / 'src' / 'repro'}; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        if argv and argv[0] == "record":
            return record(argv[1:])
        return bench(argv)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


def bench(argv: List[str]) -> int:
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=run_seconds,
                        help="measuring time per workload; must equal "
                             "BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: add a traced pass and report per-layer metrics")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out",
                        help="directory for result and trace files")
    args = parser.parse_args(argv)
    # The benchmark's command line carries --seconds, but the run length
    # belongs to the benchmark, so every commit measures for the same time.
    if args.seconds != run_seconds:
        parser.error(f"--seconds must be {run_seconds}, the run_seconds of "
                     "BENCHMARK.json")
    names = args.workload or list(WORKLOADS)

    args.out.mkdir(parents=True, exist_ok=True)
    env = {"git": git_stamp(), "python": platform.python_version(),
           "nproc": os.cpu_count(), "seed": args.seed, "seconds": run_seconds,
           "trace": args.trace, "loadavg_start": os.getloadavg()[0],
           "probe_ms_start": speed_probe_ms()}
    scratch = Path(tempfile.mkdtemp(prefix="tmp-", dir=args.out))
    try:
        results = {name: run_workload(name, args.seed, run_seconds,
                                      bool(args.trace), scratch, args.out)
                   for name in names}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()[0]
    env["probe_ms_end"] = speed_probe_ms()
    env["probe_ms_median"] = statistics.median(
        [env["probe_ms_start"], env["probe_ms_end"]]
        + [p for r in results.values() for p in r["probe_ms"]])
    env["backend"] = sorted({r["backend"] for r in results.values()})
    print(f"env: {json.dumps(env, sort_keys=True)}")
    for name, result in results.items():
        print_workload(name, result)

    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = args.out / f"result-{'-'.join(names)}-seed{args.seed}-{stamp}.json"
    path.write_text(json.dumps({"env": env, "workloads": results}, indent=1))
    print(f"result file: {path}")

    import tracing

    def metric_values(result):
        if args.trace:
            return {m: (result["layers"][m], u)
                    for m, u in tracing.LAYER_METRICS.items()}
        return {m: (result["metrics"][m]["value"], u)
                for m, u in E2E_METRICS.items()}

    metrics = {}
    for name, result in results.items():
        for metric, (value, unit) in metric_values(result).items():
            key = metric if len(names) == 1 else f"{name}:{metric}"
            metrics[key] = {"value": value, "unit": unit}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
