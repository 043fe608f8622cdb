"""Tests of the benchmark harness itself, on miniature workloads.

Run with ``PYTHONPATH=src python -m pytest bench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
import tracing
import workloads
from worker import run_pass

ROOT = Path(__file__).resolve().parents[2]


def mini_pass(name, mini, seed=0, tracer=None, **overrides):
    workload = workloads.build(name, seed, **{**mini[name], **overrides})
    try:
        return run_pass(workload, tracer)
    finally:
        workload.close()


# ----------------------------------------------------------------------
# Tracing arithmetic
# ----------------------------------------------------------------------
def test_self_time_under_scripted_clock():
    now = [0.0]
    tracer = tracing.Tracer(clock=lambda: now[0])

    def leaf():
        now[0] += 2.0

    def mid():
        now[0] += 1.0
        traced_leaf()
        now[0] += 3.0

    traced_leaf = tracer.wrap("gpu.leaf", leaf)
    traced_mid = tracer.wrap("core.mid", mid, record=True)

    def op():
        now[0] += 0.5
        traced_mid()
        traced_leaf()
        now[0] += 0.25

    tracer.run_op(0, "op0", op)
    stats = tracer.stats()
    assert [(stats[n].calls, stats[n].cum_seconds, stats[n].self_seconds)
            for n in ("core.mid", "gpu.leaf", "op")] == [
        (1, 6.0, 4.0), (2, 4.0, 4.0), (1, 8.75, 0.75)]
    metrics = tracer.metrics()
    assert metrics["core.self_s"] == 4.0 and metrics["gpu.self_s"] == 4.0
    assert metrics["unattributed_s"] == 0.75
    # Outside an op a wrapped call is a plain call.
    traced_leaf()
    assert tracer.stats()["gpu.leaf"].calls == 2
    # Only the op and the recorded entry keep span records, linked.
    assert [(s[0], s[1], s[2], s[3], s[4]) for s in tracer.spans] == [
        ("op", 0.0, 8.75, None, 0), ("core.mid", 0.5, 6.5, 0, 0)]


def test_span_cap_counts_dropped_records():
    tracer = tracing.Tracer(span_cap=1)
    traced = tracer.wrap("exec.run", lambda: None, record=True)
    tracer.run_op(0, "op0", lambda: [traced() for _ in range(3)])
    assert len(tracer.spans) == 1 and tracer.dropped == 3
    assert tracer.stats()["exec.run"].calls == 3


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_layer_self_times_and_unattributed_sum_to_op_wall(name, mini, traced):
    result = mini_pass(name, mini, tracer=traced)
    metrics = traced.metrics()
    attributed = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    op = traced.stats()["op"]
    assert attributed + metrics["unattributed_s"] == pytest.approx(
        op.cum_seconds, rel=1e-9)
    assert metrics["unattributed_s"] >= 0
    assert op.cum_seconds <= result.wall_s
    assert op.calls == len(result.op_seconds)
    assert not result.failures


def test_layer_metrics_see_each_workloads_layers(mini, traced):
    for name in workloads.WORKLOADS:
        mini_pass(name, mini, tracer=traced)
    m = traced.metrics()
    assert m["core.runs"] > 0 and m["core.epochs"] > 0
    assert m["exec.run_calls"] > 0 and m["exec.job_s"] > 0
    assert m["cluster.place_calls"] > 0 and m["cluster.admissions"] > 0
    assert m["cluster.place_nodes_scanned"] >= m["cluster.place_calls"]
    assert m["pagemove.hw_pages"] == mini["pagemove"]["hw_pages"]
    assert m["hbm.migration_commands"] == 32 * m["pagemove.hw_pages"]
    assert m["hbm.requests"] == (mini["pagemove"]["waves"]
                                 * mini["pagemove"]["wave_requests"])
    assert 0 < m["vm.tlb_hit_rate"] < 1
    assert set(tracing.LAYER_METRICS) - set(m) == {
        "startup.import_s", "startup.numpy_loaded", "trace_overhead_frac"}


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def test_perturbed_result_counts_as_failed_op(mini):
    reference = mini_pass("pagemove", mini).fingerprints
    workload = workloads.build("pagemove", 0, **mini["pagemove"])
    realloc = next(op for op in workload.ops if op.label.startswith("realloc"))
    output = realloc.output
    realloc.output = lambda report: dict(output(report), eager=-1)
    hbm = next(op for op in workload.ops if op.label.startswith("hbm"))
    hbm.check = lambda out, snap: "served 1 of 2"
    try:
        perturbed = run_pass(workload)
    finally:
        workload.close()
    payload = {"fingerprints": perturbed.fingerprints,
               "failures": {str(k): v for k, v in perturbed.failures.items()}}
    (bad,) = run.judge([payload], reference)
    labels = sorted(perturbed.labels[i] for i in bad)
    assert labels == [hbm.label, realloc.label]
    assert "fingerprint" in bad[perturbed.labels.index(realloc.label)]


def test_raising_op_is_counted_and_the_pass_goes_on(mini):
    workload = workloads.build("paper", 0, **mini["paper"])
    workload.ops[0].call = lambda: 1 / 0
    result = run_pass(workload)
    assert list(result.failures) == [0]
    assert "ZeroDivisionError" in result.failures[0]
    assert all(fp is not None for fp in result.fingerprints[1:])


def test_fleet_invariants_reject_inconsistent_counts(mini):
    from types import SimpleNamespace

    good = SimpleNamespace(arrivals=10, admissions=8, waiting_at_horizon=2,
                           departures=7)
    assert workloads._fleet_check(good, None) is None
    lost = SimpleNamespace(**{**vars(good), "waiting_at_horizon": 1})
    assert "arrivals" in workloads._fleet_check(lost, None)
    assert workloads._fleet_finish([good, SimpleNamespace(arrivals=9)]) == {
        0: "policies saw different arrival counts [9, 10]",
        1: "policies saw different arrival counts [9, 10]"}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_changes_generated_inputs(name, mini):
    def inputs(seed):
        workload = workloads.build(name, seed, **mini[name])
        workload.close()
        return workload.inputs

    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


# ----------------------------------------------------------------------
# Determinism across tracing and kernel backends
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_and_untraced_passes_agree(name, mini):
    plain = mini_pass(name, mini)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        traced = mini_pass(name, mini, tracer=tracer)
    finally:
        uninstall()
    assert traced.fingerprints == plain.fingerprints
    assert tracer.stats()["op"].calls == len(plain.op_seconds)


def test_sharded_traced_fleet_matches_serial(mini):
    serial = mini_pass("fleet_dense", mini)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        sharded = mini_pass("fleet_dense", mini, tracer=tracer, jobs=2)
    finally:
        uninstall()
    assert sharded.fingerprints == serial.fingerprints
    m = tracer.metrics()
    # Worker time arrives as job seconds; workers record no spans.
    assert m["exec.job_s"] > 0 and m["cluster.shard_s"] == m["exec.job_s"]
    assert "cluster.shard" not in tracer.stats()


def test_scalar_and_numpy_backends_agree(mini):
    pytest.importorskip("numpy")
    from repro.fastpath import set_default_kernel_backend

    prints = {}
    try:
        for backend in ("scalar", "numpy"):
            set_default_kernel_backend(backend)
            prints[backend] = mini_pass("paper", mini).fingerprints
    finally:
        set_default_kernel_backend(None)
    assert prints["scalar"] == prints["numpy"]


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def test_compare_verdicts():
    parent = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
    faster = [x * 0.8 for x in parent]
    slower = [x * 1.2 for x in parent]
    assert compare.verdict(parent, faster, 0.08)["verdict"] == "improved"
    assert compare.verdict(parent, faster, 0.08)["win_frac"] == 1.0
    assert compare.verdict(parent, slower, 0.08)["verdict"] == "worse"
    assert compare.verdict(parent, parent, 0.08)["verdict"] == "unchanged"
    # Higher-is-better flips the sense.
    assert compare.verdict(parent, slower, 0.08, "higher")["verdict"] == "improved"
    assert compare.verdict(parent, faster, None)["verdict"] == "no bound"


def test_compare_unresolved_when_spread_exceeds_bound_and_runs_interleave():
    parent = [8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5, 9.5, 10.5, 10.0]
    change = [x * 1.1 for x in parent[1:] + parent[:1]]
    assert compare.verdict(parent, change, 0.08)["verdict"] == "unresolved"
    # The same spread with every change run worse is resolved: worse.
    clear = [x + 10.0 for x in parent]
    assert compare.verdict(parent, clear, 0.08)["verdict"] == "worse"


def test_compare_unresolved_when_machine_speed_drifted():
    parent = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
    slower = [x * 1.4 for x in parent]
    # The change's side ran on a machine 30% slower: its 40% is not
    # evidence against the code; within the bound the drift is ignored.
    assert compare.verdict(parent, slower, 0.08, drift=0.3)["verdict"] == "unresolved"
    assert compare.verdict(parent, slower, 0.08, drift=-0.3)["verdict"] == "unresolved"
    assert compare.verdict(parent, slower, 0.08, drift=0.05)["verdict"] == "worse"


def test_compare_reads_result_files(tmp_path, capsys):
    def result(wall, probe=30.0):
        env = {"backend": ["numpy"], "loadavg_start": 1.0, "probe_ms_median": probe}
        return {"env": env, "workloads": {"paper": {
            "metrics": {"wall_s": {"value": wall, "unit": "s"}},
            "layers": {"core.run_s": wall / 2}}}}

    files = []
    for i in range(10):
        for side, wall in (("p", 1.0 + i * 1e-3), ("c", 0.7 + i * 1e-3)):
            path = tmp_path / f"{side}{i}.json"
            path.write_text(json.dumps(result(wall)))
            files.append(str(path))
    assert compare.main(files) == 0
    out = capsys.readouterr().out
    assert "improved" in out and "no bound" in out
    assert "parent: backend numpy, load 1.00, speed probe 30.0 ms" in out
    assert compare.main(files[1:] + files[:1]) == 1   # sides swapped: worse
    # The same swap with the change's side on a machine half as fast.
    for path in files[0::2]:
        doc = json.loads(Path(path).read_text())
        doc["env"]["probe_ms_median"] = 45.0
        Path(path).write_text(json.dumps(doc))
    capsys.readouterr()
    assert compare.main(files[1:] + files[:1]) == 0
    out = capsys.readouterr().out
    assert "speed probe drift +50.0%" in out and "unresolved" in out


# ----------------------------------------------------------------------
# The declared benchmark matches the code
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_harness():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(config) == {"command", "paths", "run_seconds", "workloads",
                           "end_to_end", "per_layer"}
    assert [w["name"] for w in config["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == tracing.LAYER_METRICS
    setup = next(m for m in config["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in config["end_to_end"])


def test_run_length_is_the_benchmarks_own():
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    with pytest.raises(SystemExit) as exc:
        run.bench(["--workload", "paper", "--seconds", str(seconds + 1)])
    assert exc.value.code == 2


def test_run_fails_without_the_simulator_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper", "--seed", "0",
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
