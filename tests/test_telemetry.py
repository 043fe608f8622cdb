"""Tests for the telemetry layer (repro.telemetry): registry semantics,
exposition round-trips, CSV series, provenance, and the trace->metrics
bridge against live instrumentation."""

import json
import math

import pytest

from repro.errors import ConfigError
from repro.exec import resolve_policy
from repro.obs import Obs
from repro.telemetry import (
    CYCLE_BUCKETS,
    MetricsRegistry,
    collect_provenance,
    parse_prometheus,
    read_provenance,
    read_series,
    registry_from_trace,
    series_values,
    stamp,
    to_json,
    to_prometheus,
    validate_prometheus_file,
    write_prometheus,
)
from repro.telemetry.bridge import DERIVED
from repro.telemetry.exposition import BUILD_INFO_METRIC
from repro.trace import TraceEvent, TraceRecorder, summarize
from repro.trace.summary import TraceSummary
from repro.workloads import poisson_arrivals


class TestRegistry:
    def test_counter_and_gauge_basics(self):
        reg = MetricsRegistry()
        jobs = reg.counter("jobs_total", "jobs", labels=("policy",))
        jobs.labels(policy="ugpu").inc()
        jobs.labels(policy="ugpu").inc(2)
        depth = reg.gauge("depth")
        depth.set(4)
        depth.dec()
        assert reg.value("jobs_total", policy="ugpu") == 3.0
        assert reg.value("depth") == 3.0
        assert reg.value("never_touched") == 0.0

    def test_counter_cannot_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigError):
            reg.counter("c").inc(-1)

    def test_family_declaration_is_idempotent(self):
        reg = MetricsRegistry()
        first = reg.counter("c", "help", labels=("k",))
        assert reg.counter("c", "help", labels=("k",)) is first
        with pytest.raises(ConfigError):
            reg.gauge("c")  # kind mismatch
        with pytest.raises(ConfigError):
            reg.counter("c", labels=("other",))  # label mismatch

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigError):
            reg.counter("0starts_with_digit")
        with pytest.raises(ConfigError):
            reg.counter("ok", labels=("le",))  # reserved
        with pytest.raises(ConfigError):
            reg.counter("ok2", labels=("k", "k"))  # duplicate

    def test_cardinality_guard(self):
        reg = MetricsRegistry(max_label_sets=4)
        family = reg.counter("c", labels=("k",))
        for i in range(4):
            family.labels(k=str(i)).inc()
        with pytest.raises(ConfigError, match="cardinality"):
            family.labels(k="4").inc()
        # Existing children stay reachable after the guard trips.
        family.labels(k="0").inc()
        assert reg.value("c", k="0") == 2.0


class TestHistogram:
    def test_boundary_values_are_inclusive(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h", buckets=(1.0, 2.5, 10.0))
        hist.observe(1.0)        # le=1.0 is inclusive
        hist.observe(1.0000001)  # next bucket
        hist.observe(-5.0)       # below every bound: first bucket
        hist.observe(10.0)       # last finite bucket, inclusive
        hist.observe(11.0)       # implicit +Inf bucket
        cumulative = dict(hist._default_child().cumulative())
        assert cumulative[1.0] == 2
        assert cumulative[2.5] == 3
        assert cumulative[10.0] == 4
        assert cumulative[math.inf] == 5
        assert hist.count == 5
        assert hist.sum == pytest.approx(18.0000001)

    def test_infinite_observation_lands_in_inf_bucket(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h", buckets=(1.0,))
        hist.observe(math.inf)
        cumulative = hist._default_child().cumulative()
        assert cumulative == [(1.0, 0), (math.inf, 1)]

    def test_nan_observation_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigError):
            reg.histogram("h", buckets=(1.0,)).observe(float("nan"))

    def test_explicit_inf_bucket_is_trimmed(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h", buckets=(1.0, math.inf))
        assert hist.buckets == (1.0,)

    def test_bad_buckets_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigError):
            reg.histogram("h1", buckets=())
        with pytest.raises(ConfigError):
            reg.histogram("h2", buckets=(2.0, 1.0))
        with pytest.raises(ConfigError):
            reg.histogram("h3", buckets=(math.inf,))


class TestPrometheusRoundTrip:
    def _registry(self):
        reg = MetricsRegistry()
        reg.provenance.update({"git_sha": "abc123", "seed": "0"})
        reg.counter("repro_jobs_total", "Jobs.", labels=("policy",)) \
            .labels(policy="ugpu").inc(7)
        reg.gauge("repro_depth", "Queue depth.").set(2.5)
        hist = reg.histogram("repro_delay", "Delay.", buckets=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(50.0)
        return reg

    def test_round_trip_preserves_samples(self):
        parsed = parse_prometheus(to_prometheus(self._registry()))
        samples = parsed["samples"]
        assert samples[("repro_jobs_total", (("policy", "ugpu"),))] == 7.0
        assert samples[("repro_depth", ())] == 2.5
        assert samples[("repro_delay_bucket", (("le", "1"),))] == 1.0
        assert samples[("repro_delay_bucket", (("le", "+Inf"),))] == 2.0
        assert samples[("repro_delay_sum", ())] == 50.5
        assert samples[("repro_delay_count", ())] == 2.0
        assert parsed["types"]["repro_jobs_total"] == "counter"
        assert parsed["types"]["repro_delay"] == "histogram"

    def test_provenance_becomes_build_info(self):
        parsed = parse_prometheus(to_prometheus(self._registry()))
        key = (BUILD_INFO_METRIC,
               (("git_sha", "abc123"), ("seed", "0")))
        assert parsed["samples"][key] == 1.0

    def test_file_write_and_validate(self, tmp_path):
        path = tmp_path / "out.prom"
        count = write_prometheus(self._registry(), path)
        assert validate_prometheus_file(path) == count

    def test_gzip_file_write_and_validate(self, tmp_path):
        path = tmp_path / "out.prom.gz"
        count = write_prometheus(self._registry(), path)
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        assert validate_prometheus_file(path) == count

    def test_gzip_json_snapshot_round_trips(self, tmp_path):
        import gzip

        from repro.telemetry.exposition import write_json

        path = tmp_path / "metrics.json.gz"
        write_json(self._registry(), path)
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["provenance"]["git_sha"] == "abc123"

    def test_malformed_exposition_rejected(self):
        with pytest.raises(ConfigError):
            parse_prometheus("not a metric line at all {")
        with pytest.raises(ConfigError):
            parse_prometheus("# TYPE x sometype\nx 1\n")
        with pytest.raises(ConfigError):
            parse_prometheus("x 1\nx 2\n")  # duplicate sample

    def test_histogram_invariants_checked(self):
        broken = (
            "# TYPE h histogram\n"
            'h_bucket{le="1.0"} 5\n'
            'h_bucket{le="+Inf"} 3\n'  # not monotone
            "h_sum 1\n"
            "h_count 3\n"
        )
        with pytest.raises(ConfigError):
            parse_prometheus(broken)

    def test_json_snapshot(self):
        payload = to_json(self._registry())
        assert payload["provenance"]["git_sha"] == "abc123"
        by_name = {f["name"]: f for f in payload["metrics"]}
        assert by_name["repro_jobs_total"]["kind"] == "counter"
        assert by_name["repro_delay"]["kind"] == "histogram"


class TestCsvSeries:
    def test_sampler_round_trip(self, tmp_path):
        from repro.telemetry import CsvSampler

        reg = MetricsRegistry()
        stamp(reg, None, policy="test")
        counter = reg.counter("repro_c_total", labels=("k",))
        hist = reg.histogram("repro_h", buckets=(10.0,))
        sampler = CsvSampler(tmp_path / "series.csv").attach(reg)
        counter.labels(k="a").inc(2)
        hist.observe(4.0)
        reg.epoch_boundary(0, 1000.0)
        counter.labels(k="a").inc(3)
        reg.epoch_boundary(1, 2000.0)
        sampler.close()

        rows = read_series(tmp_path / "series.csv")
        assert series_values(rows, "repro_c_total", k="a") == [(0, 2.0),
                                                              (1, 5.0)]
        assert series_values(rows, "repro_h_sum") == [(0, 4.0), (1, 4.0)]
        assert series_values(rows, "repro_h_count") == [(0, 1.0), (1, 1.0)]
        provenance = read_provenance(tmp_path / "series.csv")
        assert provenance["policy"] == "test"
        assert "git_sha" in provenance and "config_hash" in provenance

    def test_gzip_sampler_round_trip(self, tmp_path):
        from repro.telemetry import CsvSampler

        reg = MetricsRegistry()
        stamp(reg, None, policy="test")
        counter = reg.counter("repro_c_total")
        sampler = CsvSampler(tmp_path / "series.csv.gz").attach(reg)
        counter.inc(4)
        reg.epoch_boundary(0, 1000.0)
        sampler.close()

        path = tmp_path / "series.csv.gz"
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        rows = read_series(path)
        assert series_values(rows, "repro_c_total") == [(0, 4.0)]
        assert read_provenance(path)["policy"] == "test"


class TestProvenance:
    def test_collect_has_required_keys(self):
        info = collect_provenance(None, policy="ugpu")
        for key in ("git_sha", "repro_version", "python_version",
                    "platform", "config_hash"):
            assert info[key], key
        assert info["policy"] == "ugpu"

    def test_config_hash_is_stable_and_sensitive(self):
        from repro.telemetry import config_hash

        assert config_hash({"a": 1}) == config_hash({"a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})


class TestSummarySatellites:
    def test_dropped_events_surfaced(self):
        summary = summarize([], dropped_events=7)
        assert summary.dropped_events == 7
        assert "dropped 7" in summary.format()

    def test_raw_stall_fraction_unclamped(self):
        summary = TraceSummary(epochs=2, total_cycles=100.0,
                               migration_cycles=150.0)
        assert summary.migration_stall_fraction == 1.0
        assert summary.migration_stall_fraction_raw == pytest.approx(1.5)
        assert "RAW 1.500" in summary.format()

    def test_sane_fraction_does_not_warn(self):
        summary = TraceSummary(epochs=2, total_cycles=100.0,
                               migration_cycles=50.0)
        assert summary.migration_stall_fraction == pytest.approx(0.5)
        assert "RAW" not in summary.format()


#: Every family the event fold derives from a trace.
_DERIVED = {family(MetricsRegistry()).name
            for families in DERIVED.values() for family in families}


def _derived_samples(registry):
    """``{(family, label values): value}`` for every event-derived
    sample; a histogram's value is its bucket counts, sum and count."""
    out = {}
    for family in registry.families():
        if family.name not in _DERIVED:
            continue
        for labels, child in family.samples():
            if family.kind == "histogram":
                out[family.name, labels] = (
                    tuple(child.counts), child.sum, child.count)
            else:
                out[family.name, labels] = child.value
    return out


def _assert_trace_reproduces(live, events):
    """The registry folded from ``events`` holds every event-derived
    sample of ``live``, value for value.  A live sample it lacks must
    be zero: a family its emitter declared that no event touched."""
    live_samples = _derived_samples(live)
    bridged = _derived_samples(registry_from_trace(events))
    assert bridged
    for key, value in bridged.items():
        assert live_samples.get(key) == value, key
    for key, value in live_samples.items():
        if key not in bridged:
            empty = value == 0.0 or (
                isinstance(value, tuple) and value[2] == 0)
            assert empty, key


def _open_run(obs):
    schedule = poisson_arrivals(mean_interarrival_cycles=1_500_000,
                                horizon_cycles=10_000_000, seed=0)
    resolve_policy("ugpu")([], arrivals=schedule, obs=obs).run(10_000_000)


class TestBridgeEquivalence:
    def _golden_run(self):
        recorder = TraceRecorder()
        live = MetricsRegistry()
        _open_run(Obs(recorder, live))
        bridged = registry_from_trace(recorder.events(),
                                      dropped_events=recorder.dropped)
        return live, bridged, recorder

    def test_counters_and_gauges_match(self):
        live, _, recorder = self._golden_run()
        assert live.value("repro_open_arrivals_total") > 0  # non-trivial run
        _assert_trace_reproduces(live, recorder.events())

    def test_queueing_delay_histogram_matches(self):
        live, bridged, _ = self._golden_run()
        name = "repro_open_queueing_delay_cycles"
        live_hist, bridged_hist = live.get(name), bridged.get(name)
        assert live_hist.count == bridged_hist.count > 0
        assert live_hist.sum == pytest.approx(bridged_hist.sum)
        assert (live_hist._default_child().cumulative()
                == bridged_hist._default_child().cumulative())

    def test_epoch_duration_histogram_matches(self):
        live, bridged, _ = self._golden_run()
        name = "repro_epoch_duration_cycles"
        assert live.get(name).count == bridged.get(name).count > 0
        assert live.get(name).sum == pytest.approx(bridged.get(name).sum)

    def test_sharded_fleet_with_worker_capture(self):
        from repro.cluster import FleetSimulator, PlacementPolicy
        from repro.exec import SweepExecutor

        recorder, live = TraceRecorder(), MetricsRegistry()
        obs = Obs(recorder, live)
        schedule = poisson_arrivals(
            mean_interarrival_cycles=500_000, horizon_cycles=10_000_000,
            seed=0, instructions_per_kernel=50_000_000)
        with SweepExecutor(jobs=2, obs=obs) as executor:
            FleetSimulator(
                4, schedule, PlacementPolicy.FRAG_AWARE,
                horizon_cycles=10_000_000, rebalance_every=2,
                instructions_per_kernel=50_000_000, executor=executor,
                obs=obs,
            ).run()
        for family in ("repro_fleet_rounds_total",
                       "repro_worker_node_rounds_total",
                       "repro_exec_jobs_run_total"):
            assert live.value(family) > 0, family
        # The executor's wall seconds never reach the trace.
        assert "job" not in {e.category for e in recorder.events()}
        _assert_trace_reproduces(live, recorder.events())

    def test_driver_and_migration_engine(self):
        from repro.pagemove import (
            InterleavedPageMapping,
            MigrationEngine,
            PageMoveAddressMapping,
        )
        from repro.vm import FaultKind, GPUDriver

        recorder, live = TraceRecorder(), MetricsRegistry()
        obs = Obs(recorder, live)
        mapping = PageMoveAddressMapping()
        driver = GPUDriver(pages_per_channel=64,
                           mapping=InterleavedPageMapping(mapping), obs=obs)
        engine = MigrationEngine(driver, mapping=mapping, obs=obs)
        driver.register_app(0, [0, 1])
        for vpn in range(8):
            driver.handle_fault(FaultKind.DEMAND, 0, vpn,
                                target_channel=vpn % 2)
        engine.execute(engine.plan_channel_reallocation(0, [0]))
        assert live.value("repro_vm_faults_total", kind="demand") == 8
        assert live.value("repro_pagemove_pages_total", kind="eager") == 4
        _assert_trace_reproduces(live, recorder.events())

    def test_event_missing_a_derived_field_is_named(self):
        event = TraceEvent(seq=3, time=0.0, category="fleet", name="admit",
                           args={"job_id": 1, "node_id": 0})
        with pytest.raises(ConfigError, match="event 3 .* lacks 'delay'"):
            registry_from_trace([event])

    def test_wrapping_ring_keeps_live_metrics_exact(self):
        small, live = TraceRecorder(capacity=8), MetricsRegistry()
        _open_run(Obs(small, live))
        assert small.dropped > 0
        # The same run traced in full: the live registry behind the
        # 8-event ring still counted every event.
        full = TraceRecorder()
        _open_run(Obs(full))
        _assert_trace_reproduces(live, full.events())
        truncated = registry_from_trace(small.events(), small.dropped)
        assert truncated.value("repro_trace_dropped_events") == small.dropped


class TestDefaultBuckets:
    def test_cycle_buckets_cover_the_paper_horizon(self):
        assert CYCLE_BUCKETS[0] <= 100_000.0
        assert CYCLE_BUCKETS[-1] >= 25_000_000.0
        assert list(CYCLE_BUCKETS) == sorted(CYCLE_BUCKETS)


class TestObservabilitySatellites:
    def test_read_series_tolerates_torn_rows(self, tmp_path):
        path = tmp_path / "torn.csv"
        path.write_text(
            "# policy=test\n"
            "epoch,cycle,metric,labels,value\n"
            "0,1000,repro_x,,1.5\n"
            "\n"
            "1,2000,repro_x,,2.5\n"
            "2,3000,repro_x\n"
            "3,4000,repro_x,,not_a_float\n"
            "4,5000,repro_x,,4.5\n"
        )
        with pytest.raises(ValueError):
            read_series(path)
        rows = read_series(path, strict=False)
        assert [(r.epoch, r.value) for r in rows] == [
            (0, 1.5), (1, 2.5), (4, 4.5)
        ]

    def test_exec_stats_min_median_max_and_split(self):
        from repro.exec.stats import ExecStats

        stats = ExecStats(jobs_total=4, wall_seconds=1.0,
                          job_seconds=[0.3, 0.1, 0.2, 0.2])
        assert stats.min_seconds == pytest.approx(0.1)
        assert stats.median_seconds == pytest.approx(0.2)
        assert stats.max_seconds == pytest.approx(0.3)
        assert stats.job_seconds_total == pytest.approx(0.8)
        assert stats.orchestration_seconds == pytest.approx(0.2)
        footer = stats.format()
        assert "min 100.0ms" in footer
        assert "median 200.0ms" in footer
        assert "max 300.0ms" in footer
        assert "sim 0.80s + orchestration 0.20s" in footer

    def test_exec_stats_parallel_workers_clamp_orchestration(self):
        from repro.exec.stats import ExecStats

        stats = ExecStats(jobs_total=2, wall_seconds=0.5,
                          workers=4, job_seconds=[0.4, 0.4])
        assert stats.orchestration_seconds == 0.0

    def test_dashboard_once_renders_single_frame(self, tmp_path):
        import os
        import subprocess
        import sys

        path = tmp_path / "series.csv"
        path.write_text(
            "# policy=ugpu\n"
            "epoch,cycle,metric,labels,value\n"
            "0,1000,repro_open_wait_queue_depth,,2\n"
            "1,2000,repro_open_wait_queue_depth,,1\n"
            "1,2000,repro_open_wait\n"  # torn final row must not crash it
        )
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(repo_root, "src")
        proc = subprocess.run(
            [sys.executable,
             os.path.join(repo_root, "examples", "live_dashboard.py"),
             str(path), "--once", "--follow"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "2 epochs" in proc.stdout
        assert "wait queue" in proc.stdout
