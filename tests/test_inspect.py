"""Run-bundle inspector (repro.inspect): capture via --report-dir,
loader round-trips, analyzers, the run-vs-run differ, and renderers.

The load-bearing properties:

* a bundle captured by one CLI invocation loads back into a RunModel
  carrying the same correlation IDs the live sinks stamped;
* diffing two identical-seed, identical-config runs reports *zero*
  deterministic divergence (results, counters, meta counts) even
  though their timings differ;
* the critical-path analyzer names the same dominant self-time phase
  the profiler's own flat table puts first.
"""

import json
import shutil

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.exec import ExecStats
from repro.inspect import (
    BUNDLE_SCHEMA,
    RunReporter,
    analyze,
    diff_bundles,
    load_bundle,
    read_manifest,
    render_diff_html,
    render_diff_text,
    render_html,
    render_text,
)
from repro.inspect.model import RunModel
from repro.profiling import PhaseProfiler
from repro.trace import KIND_SPAN, TraceEvent

FLEET_ARGS = [
    "fleet", "--nodes", "4", "--cycles", "10000000",
    "--mean-interarrival", "500000",
    "--instructions-per-kernel", "50000000",
    "--placement", "first_fit",
]

#: ``exec_stats.json`` as bundles recorded while the sweep executor had
#: a result cache wrote it: cache counters and a separate ``jobs_run``.
CACHE_ERA_EXEC_STATS = {
    "jobs_total": 10, "jobs_run": 6, "cache_hits": 4, "cache_evictions": 1,
    "cache_schema_evictions": 2, "wall_seconds": 0.25, "workers": 2,
    "job_seconds": [0.01, 0.02, 0.03, 0.01, 0.02, 0.04],
    "kernel_backend": "scalar",
}


@pytest.fixture(scope="module")
def bundle_pair(tmp_path_factory):
    """Two bundles from byte-identical fleet invocations."""
    base = tmp_path_factory.mktemp("bundles")
    paths = (base / "a", base / "b")
    for path in paths:
        assert main(FLEET_ARGS + ["--report-dir", str(path)]) == 0
    return paths


def _edit_json(path, edit):
    """Rewrite the JSON document at ``path`` through ``edit``."""
    document = json.loads(path.read_text())
    edit(document)
    path.write_text(json.dumps(document))


def _retire(bundle):
    """Give ``bundle`` a count and a metric family the current code no
    longer records, as a bundle of an older version has."""
    def count(manifest):
        manifest["counts"]["obslog_records"] = 790
        manifest["counts"]["metric_families"] += 1

    _edit_json(bundle / "manifest.json", count)
    _edit_json(bundle / "metrics.json", lambda m: m["metrics"].append({
        "name": "repro_exec_cache_hits_total", "kind": "counter",
        "help": "Result-cache hits.", "labels": [],
        "samples": [{"labels": {}, "value": 4.0}]}))


def _minimal_manifest(**overrides):
    manifest = {
        "schema": BUNDLE_SCHEMA,
        "command": "fleet",
        "run_id": "cafe",
        "kernel_backend": "scalar",
        "provenance": {},
        "dropped_events": 0,
        "artifacts": {},
        "counts": {},
    }
    manifest.update(overrides)
    return manifest


class TestRunBundleCapture:
    def test_manifest_schema_and_artifacts(self, bundle_pair):
        manifest = read_manifest(bundle_pair[0])
        assert manifest["schema"] == BUNDLE_SCHEMA
        assert manifest["command"] == "fleet"
        assert set(manifest["artifacts"]) == {
            "trace", "chrome_trace", "metrics", "profile", "exec_stats",
            "results"}
        # The trace is the run's one event log.
        assert not (bundle_pair[0] / "obslog.jsonl").exists()
        assert "obslog_records" not in manifest["counts"]
        assert manifest["counts"]["trace_events"] > 0
        assert manifest["dropped_events"] == 0

    def test_loader_round_trips_every_artifact(self, bundle_pair):
        model = load_bundle(bundle_pair[0])
        assert model.command == "fleet"
        assert model.run_id
        assert model.events
        counts = model.manifest["counts"]
        assert len(model.events) == counts["trace_events"]
        assert model.metrics is not None and model.metrics["metrics"]
        assert model.exec_stats is not None
        assert model.exec_stats.jobs_total > 0
        assert "first_fit" in model.results["placements"]
        # Correlation IDs survive the disk round-trip.
        assert model.shard_ids()
        assert model.workers()
        # One placement policy -> one simulator run_id on every stamped
        # event (the simulator hashes its own run shape; the manifest's
        # run_id identifies the CLI invocation).
        run_ids = {e.args.get("run_id") for e in model.events
                   if "run_id" in e.args}
        assert len(run_ids) == 1

    def test_obslog_job_id_names_an_arrival(self, tmp_path):
        """In a sharded fleet bundle's trace, every ``admit`` and
        ``depart`` event's ``job_id`` names an ``arrive`` event, so one
        job's history is the events that carry its ``job_id``."""
        bundle = tmp_path / "sharded"
        assert main(FLEET_ARGS + ["--jobs", "2",
                                  "--report-dir", str(bundle)]) == 0
        model = load_bundle(bundle)
        arrivals = {e.args["job_id"] for e in model.fleet_events("arrive")}
        lifecycle = model.fleet_events("admit") + model.fleet_events("depart")
        assert arrivals and lifecycle
        assert {e.args["job_id"] for e in lifecycle} <= arrivals

    def test_gzip_bundle_loads_transparently(self, tmp_path):
        bundle = tmp_path / "gz"
        assert main(FLEET_ARGS + ["--report-dir", str(bundle),
                                  "--report-gzip"]) == 0
        manifest = read_manifest(bundle)
        assert manifest["artifacts"]["trace"].endswith(".gz")
        model = load_bundle(bundle)
        assert len(model.events) == manifest["counts"]["trace_events"]

    def test_non_bundle_directory_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not a run bundle"):
            load_bundle(tmp_path)

    def test_wrong_schema_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            json.dumps({"schema": "repro.bundle/999", "artifacts": {}})
        )
        with pytest.raises(ConfigError, match="schema"):
            read_manifest(tmp_path)

    def test_double_finish_rejected(self, tmp_path):
        reporter = RunReporter(tmp_path / "r", command="test",
                               run_id="cafe")
        reporter.finish()
        with pytest.raises(ConfigError, match="already finalized"):
            reporter.finish()


class TestAnalyzers:
    def test_fleet_bundle_findings(self, bundle_pair):
        model = load_bundle(bundle_pair[0])
        findings = analyze(model)
        categories = {f.category for f in findings}
        assert "critical_path" in categories
        assert "wait_queue" in categories
        for finding in findings:
            assert finding.severity in ("info", "warning")

    def test_critical_path_matches_profiler_dominant_phase(self):
        # Scripted clock: epoch spans 10s cumulative, of which advance
        # takes 7s and policy 1s -> dominant self-time phase is
        # epoch.advance (7s), ahead of epoch's 2s self.
        times = iter([0.0, 1.0, 8.0, 8.0, 9.0, 10.0])
        profiler = PhaseProfiler(clock=lambda: next(times))
        profiler.begin("epoch")
        profiler.begin("epoch.advance")
        profiler.end("epoch.advance")
        profiler.begin("epoch.policy")
        profiler.end("epoch.policy")
        profiler.end("epoch")
        model = RunModel(path="synthetic", manifest=_minimal_manifest(),
                         profile=profiler)
        finding = next(f for f in analyze(model)
                       if f.category == "critical_path")
        dominant = profiler.flat()[0]
        assert dominant.name == "epoch.advance"
        assert finding.data["dominant_phase"] == dominant.name
        assert f"dominant self-time phase '{dominant.name}'" in \
            finding.detail
        assert finding.data["chain"] == ["epoch", "epoch/epoch.advance"]

    def test_dropped_events_surface_as_evidence_warning(self):
        model = RunModel(path="synthetic",
                         manifest=_minimal_manifest(dropped_events=7))
        findings = analyze(model)
        warning = findings[0]
        assert warning.severity == "warning"
        assert "evidence incomplete" in warning.title
        assert warning.data["dropped_events"] == 7
        # No command takes a --trace flag; the finding states the rings'
        # capacities instead.
        assert warning.detail == (
            "the trace ring buffer dropped 7 event(s); timeline-based "
            "findings below may undercount — a bundle's ring holds "
            "262,144 events and each worker job's 16,384")

    def test_straggler_detection_from_obslog(self):
        """The straggler finding reads ExecStats' per-worker seconds."""
        model = RunModel(
            path="synthetic", manifest=_minimal_manifest(),
            exec_stats=ExecStats(worker_seconds={
                "tok-1": 80.0, "tok-2": 1.0, "tok-3": 1.0, "tok-4": 1.0}))
        finding = next(f for f in analyze(model)
                       if f.category == "stragglers")
        assert finding.severity == "warning"
        assert finding.data["worst_worker"] == "tok-1"
        assert finding.title == "straggler worker tok-1"

    def test_straggler_detection_groups_by_worker_token(self):
        # The token outlives pid reuse, so it keys a worker: merged runs
        # sum per token.  Job spans in a trace are not evidence (a
        # trace keeps the cycle clock; job time is wall seconds).
        stats = ExecStats()
        for seconds in [{"tok-a": 10.0}] * 8 + [{"tok-b": 1.0, "tok-c": 1.0}]:
            stats.merge(ExecStats(worker_seconds=seconds))
        model = RunModel(path="synthetic", manifest=_minimal_manifest(),
                         exec_stats=stats)
        model.events.append(TraceEvent(
            seq=0, time=0.0, category="job", name="bp:PVC_DXTC",
            kind=KIND_SPAN, duration=1e6, args={"worker": "tok-trace"}))
        finding = next(f for f in analyze(model)
                       if f.category == "stragglers")
        assert finding.data["workers"] == 3
        assert finding.data["worst_worker"] == "tok-a"
        assert finding.data["worst_seconds"] == 80.0

    def test_profile_bundle_agrees_with_repro_profile(
            self, tmp_path, capsys):
        """Acceptance: on a real run's bundle, the first row of the
        hot-phase table `repro inspect` prints is the dominant phase its
        critical-path finding names."""
        bundle = str(tmp_path / "bundle")
        assert main(["arrivals", "--seed", "0", "--cycles", "10000000",
                     "--report-dir", bundle]) == 0
        capsys.readouterr()
        assert main(["inspect", bundle]) == 0
        lines = capsys.readouterr().out.splitlines()
        # First data row of the table is the dominant self-time phase.
        header_at = next(
            i for i, line in enumerate(lines)
            if line.split()[:1] == ["phase"] and "self%" in line)
        top_phase = lines[header_at + 1].split()[0]
        model = load_bundle(bundle)
        finding = next(f for f in analyze(model)
                       if f.category == "critical_path")
        assert finding.data["dominant_phase"] == top_phase


class TestDiffer:
    def test_self_diff_reports_zero_divergence(self, bundle_pair):
        diff = diff_bundles(*bundle_pair)
        assert diff.zero_divergence
        assert diff.result_divergence == []
        assert diff.metric_divergence == []
        assert diff.meta_divergence == []
        text = render_diff_text(diff)
        assert "result divergence: none" in text
        assert "metric divergence: none" in text
        assert "meta-count divergence: none" in text
        assert "IDENTICAL" in text

    def test_timing_deltas_are_timing_named(self, bundle_pair):
        diff = diff_bundles(*bundle_pair)
        for delta in diff.timing_deltas:
            assert ("seconds" in delta.name or "wall" in delta.name
                    or delta.name.startswith("repro_health_"))

    def test_result_divergence_detected(self, bundle_pair, tmp_path):
        mutated = tmp_path / "mutated"
        shutil.copytree(bundle_pair[0], mutated)
        results_path = mutated / "results.json"
        results = json.loads(results_path.read_text())
        results["placements"]["first_fit"]["stp"] += 1.0
        results_path.write_text(json.dumps(results))
        diff = diff_bundles(bundle_pair[0], mutated)
        assert not diff.zero_divergence
        paths = [p for p, _, _ in diff.result_divergence]
        assert paths == ["placements.first_fit.stp"]
        assert "DIVERGED" in render_diff_text(diff)

    def test_meta_count_divergence_detected(self, bundle_pair, tmp_path):
        mutated = tmp_path / "mutated"
        shutil.copytree(bundle_pair[0], mutated)
        manifest_path = mutated / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["counts"]["trace_events"] += 1
        manifest_path.write_text(json.dumps(manifest))
        diff = diff_bundles(bundle_pair[0], mutated)
        assert not diff.zero_divergence
        assert diff.meta_divergence[0][0] == "trace_events"

    def test_retired_count_and_family_are_notes(self, bundle_pair, tmp_path):
        """A count or a metric family only one bundle has says the two
        versions record different things, not that their runs did
        different work: it is a note naming it and its side."""
        parent = tmp_path / "parent"
        shutil.copytree(bundle_pair[0], parent)
        _retire(parent)
        diff = diff_bundles(parent, bundle_pair[1])
        assert diff.zero_divergence
        assert diff.meta_divergence == [] and diff.metric_divergence == []
        text = render_diff_text(diff)
        assert "note: count obslog_records only in A" in text
        assert "note: metric family repro_exec_cache_hits_total only in A" in \
            text
        assert "verdict: IDENTICAL" in text
        reverse = diff_bundles(bundle_pair[1], parent)
        assert reverse.zero_divergence
        assert any("count obslog_records only in B" in note
                   for note in reverse.notes)
        # The family count is compared over the families both have, so
        # a count the one-sided family does not explain still diverges.
        _edit_json(parent / "manifest.json",
                   lambda m: m["counts"].update(
                       metric_families=m["counts"]["metric_families"] + 1))
        assert [key for key, _, _ in diff_bundles(
            parent, bundle_pair[1]).meta_divergence] == ["metric_families"]

    def test_shared_family_difference_still_diverges(
            self, bundle_pair, tmp_path, capsys):
        def bump_rounds(metrics):
            family = next(f for f in metrics["metrics"]
                          if f["name"] == "repro_fleet_rounds_total")
            family["samples"][0]["value"] += 1

        def add_label_set(metrics):
            family = next(f for f in metrics["metrics"]
                          if f["name"] == "repro_fleet_jobs_total")
            family["samples"].append(
                {"labels": {"event": "requeued"}, "value": 1.0})

        for edit, expected in (
                (bump_rounds, ("repro_fleet_rounds_total", "")),
                (add_label_set, ("repro_fleet_jobs_total",
                                 "event=requeued"))):
            mutated = tmp_path / edit.__name__
            shutil.copytree(bundle_pair[0], mutated)
            _retire(mutated)
            _edit_json(mutated / "metrics.json", edit)
            diff = diff_bundles(bundle_pair[0], mutated)
            assert [(d.name, d.labels) for d in diff.metric_divergence] == [
                expected]
            capsys.readouterr()
            assert main(["diff", str(bundle_pair[0]), str(mutated),
                         "--expect-identical"]) == 1
            assert "verdict: DIVERGED" in capsys.readouterr().out

    def test_span_attribution_present_and_ranked(self, bundle_pair):
        diff = diff_bundles(*bundle_pair)
        # Wall times always differ between two real runs, so the span
        # attribution must name where, ranked by |delta| descending.
        assert diff.span_deltas
        deltas = [abs(s.delta) for s in diff.span_deltas]
        assert deltas == sorted(deltas, reverse=True)

    def test_backend_difference_noted(self, bundle_pair, tmp_path):
        mutated = tmp_path / "mutated"
        shutil.copytree(bundle_pair[0], mutated)
        manifest_path = mutated / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        # Flip to whichever backend the bundle was not recorded under, so
        # the check holds when the suite itself runs on either backend.
        manifest["kernel_backend"] = (
            "numpy" if manifest["kernel_backend"] == "scalar" else "scalar"
        )
        manifest_path.write_text(json.dumps(manifest))
        diff = diff_bundles(bundle_pair[0], mutated)
        assert any("kernel backends differ" in note for note in diff.notes)
        assert diff.zero_divergence  # backend is a note, not drift


class TestRenderers:
    def test_text_report_is_deterministic(self, bundle_pair):
        model = load_bundle(bundle_pair[0])
        findings = analyze(model)
        assert render_text(model, findings) == render_text(model, findings)
        text = render_text(model, findings)
        assert "critical path" in text
        assert "findings" in text

    def test_html_reports_are_self_contained(self, bundle_pair):
        model = load_bundle(bundle_pair[0])
        html = render_html(model, analyze(model))
        assert html.startswith("<!DOCTYPE html>")
        assert "<script" not in html
        assert "http://" not in html and "https://" not in html
        diff_html = render_diff_html(diff_bundles(*bundle_pair))
        assert diff_html.startswith("<!DOCTYPE html>")
        assert "<script" not in diff_html

    def test_html_escapes_untrusted_text(self):
        model = RunModel(
            path="<b>x</b>",
            manifest=_minimal_manifest(command="<script>alert(1)</script>"),
        )
        html = render_html(model, analyze(model))
        assert "<script>alert(1)</script>" not in html


class TestCli:
    def test_inspect_command(self, bundle_pair, tmp_path, capsys):
        html = tmp_path / "report.html"
        assert main(["inspect", str(bundle_pair[0]),
                     "--html", str(html)]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert html.read_text().startswith("<!DOCTYPE html>")

    def test_diff_command_expect_identical(self, bundle_pair, tmp_path,
                                           capsys):
        html = tmp_path / "diff.html"
        assert main(["diff", str(bundle_pair[0]), str(bundle_pair[1]),
                     "--expect-identical", "--html", str(html)]) == 0
        assert "IDENTICAL" in capsys.readouterr().out
        assert html.exists()

    def test_diff_expect_identical_fails_on_divergence(
            self, bundle_pair, tmp_path, capsys):
        mutated = tmp_path / "mutated"
        shutil.copytree(bundle_pair[0], mutated)
        results_path = mutated / "results.json"
        results = json.loads(results_path.read_text())
        results["placements"]["first_fit"]["admissions"] += 1
        results_path.write_text(json.dumps(results))
        assert main(["diff", str(bundle_pair[0]), str(mutated),
                     "--expect-identical"]) == 1
        assert "DIVERGED" in capsys.readouterr().out

    def test_inspect_renders_a_cache_era_bundle(self, bundle_pair, tmp_path,
                                                capsys):
        """A bundle whose ``exec_stats.json`` still counts result-cache
        traffic loads (the extra keys are ignored) and renders."""
        old = tmp_path / "cache-era"
        shutil.copytree(bundle_pair[0], old)
        (old / "exec_stats.json").write_text(json.dumps(CACHE_ERA_EXEC_STATS))
        stats = load_bundle(old).exec_stats
        assert stats == ExecStats.from_dict(CACHE_ERA_EXEC_STATS)
        assert stats.to_dict() == {
            **{key: CACHE_ERA_EXEC_STATS[key]
               for key in ("jobs_total", "wall_seconds", "workers",
                           "job_seconds", "kernel_backend")},
            "worker_seconds": {},
        }
        assert main(["inspect", str(old)]) == 0
        assert "critical path" in capsys.readouterr().out

    def test_parent_layout_bundle_loads_inspects_and_diffs(
            self, bundle_pair, tmp_path, capsys):
        """A bundle written while runs also kept an obslog (its manifest
        names ``obslog.jsonl``, its ExecStats hold no per-worker seconds)
        loads, inspects, and diffs IDENTICAL against the same command's
        bundle, with its retired count as a note."""
        old = tmp_path / "parent-layout"
        shutil.copytree(bundle_pair[0], old)
        (old / "obslog.jsonl").write_text(
            '{"event": "fleet.run", "level": "info", "pid": 1, '
            '"run_id": "cafecafecafecafe", "ts": 0.0}\n')
        _edit_json(old / "manifest.json", lambda m: (
            m["artifacts"].update(obslog="obslog.jsonl"),
            m["counts"].update(obslog_records=1)))
        _edit_json(old / "exec_stats.json",
                   lambda stats: stats.pop("worker_seconds"))
        model = load_bundle(old)
        assert model.exec_stats.worker_seconds == {}
        assert len(model.events) == model.manifest["counts"]["trace_events"]
        capsys.readouterr()
        assert main(["inspect", str(old)]) == 0
        assert "critical path" in capsys.readouterr().out
        assert main(["diff", str(old), str(bundle_pair[1]),
                     "--expect-identical"]) == 0
        out = capsys.readouterr().out
        assert "note: count obslog_records only in A" in out
        assert "meta-count divergence: none" in out
        assert "verdict: IDENTICAL" in out

    def test_inspect_missing_bundle_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            main(["inspect", str(tmp_path)])
