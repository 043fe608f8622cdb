"""Golden observability exports: what the CLI's sinks write, pinned.

Two instrumented CLI runs go through ``repro.cli.main`` in a temporary
directory, with every observability flag they take: a small ``fleet``
(Prometheus, run bundle) and an ``arrivals`` run (Prometheus, CSV
series, run bundle).  The bundle holds the trace, metrics snapshot,
profile, results and (for the fleet) ExecStats.  Each artifact is
normalized, then stored in ``tests/golden/obs_exports.json`` as a
SHA-256 plus a record count.

Normalization drops only run provenance and values that are wall time
or process identity:

* provenance: the ``repro_build_info`` sample, the JSON ``provenance``
  field, the CSV ``#`` header lines, and the manifest's ``provenance``
  and ``kernel_backend``;
* trace args ``pid`` and ``worker`` (and the OS pid in a Chrome
  ``process_name`` label);
* the ``repro_exec_wall_seconds_total`` and ``repro_exec_job_seconds``
  samples;
* profile times (phase paths and call counts stay);
* ``exec_stats.json``, except its job count.

``--health`` is left out: its straggler detector reads wall times.
``examples/trace_timeline.py`` runs too, and its printed summary is
pinned line by line.  ``repro metrics`` over each bundle's trace must
reproduce every sample of the live ``M`` that the trace's events carry.

Re-record (only when an export is meant to change)::

    PYTHONPATH=src python tests/test_obs_exports.py --record
"""

import contextlib
import hashlib
import io
import json
import os
import re
import runpy
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.system import clear_solo_ipc_cache
from repro.telemetry import MetricsRegistry, parse_prometheus
from repro.telemetry.bridge import DERIVED
from repro.trace import read_jsonl

REPO = Path(__file__).resolve().parent.parent
GOLDEN_PATH = REPO / "tests" / "golden" / "obs_exports.json"
EXAMPLE = REPO / "examples" / "trace_timeline.py"

RUNS = {
    "fleet": [
        "fleet", "--nodes", "4", "--cycles", "10000000",
        "--instructions-per-kernel", "50000000", "--jobs", "1",
        "--metrics-out", "M", "--report-dir", "B",
    ],
    "arrivals": [
        "arrivals", "--seed", "0", "--cycles", "10000000",
        "--metrics-out", "M", "--metrics-csv", "C", "--report-dir", "B",
    ],
}

_TRACE_ARG_DROP = ("pid", "worker")
_WALL_FAMILIES = ("repro_exec_wall_seconds_total", "repro_exec_job_seconds")
_EXEC_COUNTS = ("jobs_total",)


def _dump(value) -> str:
    return json.dumps(value, sort_keys=True)


def _without(mapping, keys):
    return {k: v for k, v in mapping.items() if k not in keys}


def _trace_jsonl(text):
    records = []
    for line in text.splitlines():
        record = json.loads(line)
        if "args" in record:
            record["args"] = _without(record["args"], _TRACE_ARG_DROP)
        records.append(_dump(record))
    return records


def _chrome(text):
    records = []
    for event in json.loads(text)["traceEvents"]:
        args = _without(event.get("args", {}), _TRACE_ARG_DROP)
        if event.get("name") == "process_name":
            args["name"] = re.sub(r"\(pid \d+\)", "(pid)", args["name"])
        event["args"] = args
        records.append(_dump(event))
    return records


def _family(sample_name):
    return re.sub(r"_(bucket|sum|count)$", "", sample_name)


def _prometheus(text):
    drop = ("repro_build_info",) + _WALL_FAMILIES
    return [line for line in text.splitlines()
            if line.startswith("#")
            or _family(re.split(r"[{ ]", line, maxsplit=1)[0]) not in drop]


def _metrics_json(text):
    records = []
    for family in json.loads(text)["metrics"]:
        if family["name"] in _WALL_FAMILIES:
            family["samples"] = []
        records.append(_dump(family))
    return records


def _csv(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


def _manifest(text):
    return [_dump(_without(json.loads(text), ("provenance", "kernel_backend")))]


def _profile(text):
    phases = json.loads(text)["phases"]
    return [f"{path} {calls}" for path, (calls, _) in sorted(phases.items())]


def _exec_stats(text):
    stats = json.loads(text)
    return [_dump({k: stats[k] for k in _EXEC_COUNTS})]


def _whole_json(text):
    return [_dump(json.loads(text))]


def _normalizer(name):
    return {
        "trace.jsonl": _trace_jsonl,
        "trace.chrome.json": _chrome,
        "M": _prometheus,
        "metrics.json": _metrics_json,
        "C": _csv,
        "manifest.json": _manifest,
        "profile.json": _profile,
        "exec_stats.json": _exec_stats,
        "results.json": _whole_json,
    }[name.rsplit("/", 1)[-1]]


def _fingerprint(directory: Path):
    out = {}
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        name = path.relative_to(directory).as_posix()
        records = _normalizer(name)(path.read_text())
        digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
        out[name] = {"sha256": digest, "records": len(records)}
    return out


def compute_exports(workdir: Path):
    """Run both CLI commands and the example under ``workdir``."""
    exports = {}
    cwd = os.getcwd()
    try:
        for name, argv in RUNS.items():
            directory = workdir / name
            directory.mkdir()
            os.chdir(directory)
            # The solo-IPC memo is process-wide; a warm entry would skip
            # the profiled ``run.solo_ipc`` phase.
            clear_solo_ipc_cache()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) == 0
            exports[name] = _fingerprint(directory)
        directory = workdir / "example"
        directory.mkdir()
        os.chdir(directory)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            runpy.run_path(str(EXAMPLE), run_name="__main__")
        exports["examples/trace_timeline.py"] = stdout.getvalue().splitlines()
    finally:
        os.chdir(cwd)
    return exports


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("obs_exports")


@pytest.fixture(scope="module")
def exports(workdir):
    return compute_exports(workdir)


with open(GOLDEN_PATH) as _handle:
    GOLDEN = json.load(_handle)


@pytest.mark.parametrize("run", sorted(RUNS))
def test_cli_exports_match_golden(exports, run):
    assert exports[run] == GOLDEN[run]


@pytest.mark.parametrize("run", sorted(RUNS))
def test_trace_reproduces_live_metrics(exports, workdir, run):
    directory = workdir / run
    trace = directory / "B" / "trace.jsonl"
    out = directory / "bridged.prom"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["metrics", str(trace), "--out", str(out)]) == 0
    bridged = parse_prometheus(out.read_text())["samples"]
    live = parse_prometheus((directory / "M").read_text())["samples"]
    traced = {e.category for e in read_jsonl(trace)}
    derived = {family(MetricsRegistry()).name
               for category in traced for family in DERIVED.get(category, ())}
    checked = [key for key in live if _family(key[0]) in derived]
    assert len(checked) > 20
    for key in checked:
        # A live sample the trace lacks is a family declared at zero.
        assert bridged.get(key, 0.0) == live[key], key
    assert {key for key in bridged if _family(key[0]) in derived} <= set(live)


def test_trace_timeline_example_summary(exports):
    name = "examples/trace_timeline.py"
    assert exports[name] == GOLDEN[name]


if __name__ == "__main__" and "--record" in sys.argv:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        recorded = compute_exports(Path(tmp))
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {GOLDEN_PATH}")
