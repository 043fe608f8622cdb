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

FLEET_ARGS = [
    "fleet", "--nodes", "4", "--cycles", "10000000",
    "--mean-interarrival", "500000",
    "--instructions-per-kernel", "50000000",
    "--placement", "first_fit", "--no-cache",
]


@pytest.fixture(scope="module")
def bundle_pair(tmp_path_factory):
    """Two bundles from byte-identical fleet invocations."""
    base = tmp_path_factory.mktemp("bundles")
    paths = (base / "a", base / "b")
    for path in paths:
        assert main(FLEET_ARGS + ["--report-dir", str(path)]) == 0
    return paths


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
        for name in ("trace", "chrome_trace", "metrics", "obslog",
                     "profile", "exec_stats", "results"):
            assert name in manifest["artifacts"]
        assert manifest["counts"]["trace_events"] > 0
        assert manifest["dropped_events"] == 0

    def test_loader_round_trips_every_artifact(self, bundle_pair):
        model = load_bundle(bundle_pair[0])
        assert model.command == "fleet"
        assert model.run_id
        assert model.events
        counts = model.manifest["counts"]
        assert len(model.events) == counts["trace_events"]
        assert len(model.obslog) == counts["obslog_records"]
        assert model.obslog_truncations == []
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

    def test_gzip_bundle_loads_transparently(self, tmp_path):
        bundle = tmp_path / "gz"
        assert main(FLEET_ARGS + ["--report-dir", str(bundle),
                                  "--report-gzip"]) == 0
        manifest = read_manifest(bundle)
        assert manifest["artifacts"]["trace"].endswith(".gz")
        assert manifest["artifacts"]["obslog"].endswith(".gz")
        model = load_bundle(bundle)
        assert len(model.events) == manifest["counts"]["trace_events"]
        assert len(model.obslog) == manifest["counts"]["obslog_records"]

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
        assert "cache" in categories
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

    def test_obslog_truncation_surfaces_as_evidence_warning(self):
        model = RunModel(path="synthetic", manifest=_minimal_manifest())
        model.obslog_truncations.append("obslog.jsonl:9: malformed")
        findings = analyze(model)
        assert any(
            f.severity == "warning" and "truncated" in f.title
            for f in findings
        )

    def test_straggler_detection_from_obslog(self):
        model = RunModel(path="synthetic", manifest=_minimal_manifest())
        for _ in range(8):
            model.obslog.append(
                {"event": "exec.job", "worker_pid": 1, "seconds": 10.0})
        for pid in (2, 3, 4):
            model.obslog.append(
                {"event": "exec.job", "worker_pid": pid, "seconds": 1.0})
        finding = next(f for f in analyze(model)
                       if f.category == "stragglers")
        assert finding.severity == "warning"
        assert finding.data["worst_worker"] == "pid=1"

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

    def test_inspect_missing_bundle_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            main(["inspect", str(tmp_path)])
