"""Tests for the tracing layer (repro.trace) and its instrumentation
hooks across core, pagemove, vm and exec."""

import json

import pytest

from repro import build_mix
from repro.errors import ConfigError
from repro.exec import SweepExecutor, SweepJob
from repro.exec.envelope import worker_token
from repro.exec.registry import bp, ugpu
from repro.pagemove import (
    InterleavedPageMapping,
    MigrationEngine,
    PageMoveAddressMapping,
)
from repro.obs import Obs
from repro.telemetry import MetricsRegistry
from repro.trace import (
    TraceCategory,
    TraceRecorder,
    chrome_trace,
    read_jsonl,
    summarize,
    write_chrome_trace,
    write_jsonl,
)
from repro.vm import FaultKind, GPUDriver


class TestRecorder:
    def test_emit_and_retrieve(self):
        recorder = TraceRecorder()
        event = recorder.emit("epoch", "epoch[0]", time=5.0, duration=2.0,
                              instructions=10)
        assert event is not None
        assert event.category == "epoch"
        assert event.kind == "span"
        assert event.end_time == 7.0
        assert recorder.events() == [event]
        assert recorder.events("epoch") == [event]
        assert recorder.events("fault") == []

    def test_instant_default_kind(self):
        recorder = TraceRecorder()
        assert recorder.emit("fault", "demand").kind == "instant"

    def test_unknown_category_rejected(self):
        recorder = TraceRecorder()
        with pytest.raises(ConfigError):
            recorder.emit("nonsense", "x")
        assert recorder.emit(TraceCategory.REALLOC, "apply").category == \
            "realloc"

    def test_ring_buffer_wraparound(self):
        recorder = TraceRecorder(capacity=4)
        for index in range(10):
            recorder.emit("epoch", f"e{index}", time=index)
        assert len(recorder) == 4
        assert recorder.emitted == 10
        assert recorder.dropped == 6
        # The survivors are the newest four, in emission order.
        assert [e.name for e in recorder.events()] == ["e6", "e7", "e8", "e9"]
        assert [e.seq for e in recorder.events()] == [6, 7, 8, 9]

    def test_clear_empties_ring_but_keeps_counters(self):
        recorder = TraceRecorder()
        recorder.emit("epoch", "e")
        assert recorder.clear() == 1
        assert len(recorder) == 0
        assert recorder.emitted == 1

    def test_bad_capacity_rejected(self):
        with pytest.raises(ConfigError):
            TraceRecorder(capacity=0)


class TestExport:
    def _sample_events(self):
        recorder = TraceRecorder()
        recorder.emit("epoch", "epoch[0]", time=0.0, duration=100.0,
                      instructions=42, migration_cycles=10)
        recorder.emit("fault", "demand", time=7.0, app_id=1, vpn=3)
        recorder.emit("realloc", "apply", time=100.0, epoch=0, iterations=2)
        return recorder.events()

    def test_jsonl_round_trip(self, tmp_path):
        events = self._sample_events()
        path = tmp_path / "trace.jsonl"
        assert write_jsonl(events, path) == 3
        assert read_jsonl(path) == events

    def test_jsonl_gzip_round_trip(self, tmp_path):
        events = self._sample_events()
        path = tmp_path / "trace.jsonl.gz"
        assert write_jsonl(events, path) == 3
        # The artifact really is gzip (magic bytes), not plain text with
        # a misleading extension.
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        assert read_jsonl(path) == events

    def test_jsonl_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"not": "a trace record"}\n')
        with pytest.raises(ConfigError):
            read_jsonl(path)

    def test_chrome_trace_shape(self):
        payload = chrome_trace(self._sample_events(), clock_ghz=1.0)
        records = payload["traceEvents"]
        spans = [r for r in records if r.get("ph") == "X"]
        instants = [r for r in records if r.get("ph") == "i"]
        metadata = [r for r in records if r.get("ph") == "M"]
        assert len(spans) == 1 and spans[0]["dur"] == pytest.approx(0.1)
        assert spans[0]["ts"] == pytest.approx(0.0)
        assert len(instants) == 2
        # One named row per (category, app_id) pair seen.
        assert len(metadata) == 3
        # 1 GHz: 7 cycles -> 0.007 us.
        fault = next(r for r in instants if r["cat"] == "fault")
        assert fault["ts"] == pytest.approx(0.007)

    def test_chrome_trace_file_is_json(self, tmp_path):
        path = tmp_path / "trace.chrome.json"
        count = write_chrome_trace(self._sample_events(), path)
        with open(path) as handle:
            payload = json.load(handle)
        assert len(payload["traceEvents"]) == count
        assert payload["displayTimeUnit"] == "ms"

    def test_bad_clock_rejected(self):
        with pytest.raises(ConfigError):
            chrome_trace([], clock_ghz=0.0)


class TestSummary:
    def test_derived_metrics(self):
        recorder = TraceRecorder()
        for index in range(4):
            recorder.emit("epoch", f"epoch[{index}]", time=index * 100.0,
                          duration=100.0, instructions=5,
                          migration_cycles=20 if index in (1, 3) else 0)
        recorder.emit("realloc", "apply", time=100.0, epoch=1)
        recorder.emit("realloc", "apply", time=300.0, epoch=3)
        recorder.emit("realloc", "suppress", time=200.0, epoch=2)
        for _ in range(6):
            recorder.emit("fault", "demand")
        recorder.emit("fault", "lost_channel")
        recorder.emit("qos", "enforce", app_id=1)
        summary = summarize(recorder.events())
        assert summary.epochs == 4
        assert summary.total_cycles == 400.0
        assert summary.faults == 7
        assert summary.faults_by_kind == {"demand": 6, "lost_channel": 1}
        assert summary.fault_rate_per_epoch == pytest.approx(7 / 4)
        assert summary.migration_stall_fraction == pytest.approx(40 / 400)
        assert summary.reallocations_applied == 2
        assert summary.reallocations_suppressed == 1
        assert summary.reallocation_cadence_epochs == pytest.approx(2.0)
        assert summary.qos_interventions == 1
        text = summary.format()
        assert "migration stall 10.0%" in text
        assert "2 applied, 1 suppressed" in text

    def test_empty_trace(self):
        summary = summarize([])
        assert summary.fault_rate_per_epoch == 0.0
        assert summary.migration_stall_fraction == 0.0
        assert summary.reallocation_cadence_epochs is None


class TestSystemInstrumentation:
    def _run(self, recorder=None, policy=ugpu):
        apps = build_mix(["PVC", "DXTC"]).applications
        obs = Obs(recorder) if recorder is not None else Obs()
        return policy(apps, obs=obs).run(15_000_000, mix_name="PVC_DXTC")

    def test_traced_run_matches_untraced_run(self):
        recorder = TraceRecorder()
        untraced = self._run()
        traced = self._run(recorder)
        assert traced.stp == untraced.stp
        assert traced.antt == untraced.antt
        assert traced.total_cycles == untraced.total_cycles
        assert traced.repartitions == untraced.repartitions
        assert [e.instructions for e in traced.epochs] == [
            e.instructions for e in untraced.epochs
        ]
        assert recorder.emitted > 0

    def test_epoch_events_cover_the_horizon(self):
        recorder = TraceRecorder()
        result = self._run(recorder)
        epochs = recorder.events("epoch")
        assert len(epochs) == len(result.epochs)
        assert sum(e.duration for e in epochs) == result.total_cycles
        assert all(e.kind == "span" for e in epochs)

    def test_realloc_events_match_repartition_count(self):
        recorder = TraceRecorder()
        result = self._run(recorder)
        applies = [e for e in recorder.events("realloc") if e.name == "apply"]
        assert len(applies) == result.repartitions
        for event in applies:
            assert set(event.args["allocations"]) == {0, 1}

    def test_bp_system_accepts_tracer(self):
        recorder = TraceRecorder()
        self._run(recorder, policy=bp)
        assert len(recorder.events("epoch")) == 3
        assert recorder.events("realloc") == []  # static policy

    def test_migration_windows_traced(self):
        recorder = TraceRecorder()
        self._run(recorder)
        migrations = recorder.events("migration")
        assert migrations, "a repartition must charge migration windows"
        assert all(e.args["mode"] == "ppmm" for e in migrations)


class TestComponentInstrumentation:
    def test_driver_fault_events(self):
        recorder = TraceRecorder()
        driver = GPUDriver(num_channel_groups=2, pages_per_channel=8,
                           obs=Obs(recorder))
        driver.register_app(0, [0, 1])
        driver.handle_fault(FaultKind.DEMAND, 0, vpn=1)
        driver.handle_fault(FaultKind.REBALANCE, 0, vpn=1, target_channel=1)
        names = [e.name for e in recorder.events("fault")]
        assert names == ["demand", "rebalance"]
        rebalance = recorder.events("fault")[1]
        assert rebalance.args["source_channel"] is not None

    def test_migration_engine_plan_and_execute_events(self):
        recorder = TraceRecorder()
        mapping = PageMoveAddressMapping()
        driver = GPUDriver(pages_per_channel=64,
                           mapping=InterleavedPageMapping(mapping))
        engine = MigrationEngine(driver, mapping=mapping, obs=Obs(recorder))
        driver.register_app(0, [0, 1])
        for vpn in range(8):
            driver.handle_fault(FaultKind.DEMAND, 0, vpn,
                                target_channel=vpn % 2)
        plan = engine.plan_channel_reallocation(0, [0])
        engine.execute(plan)
        names = [e.name for e in recorder.events("migration")]
        assert names == ["plan", "execute"]
        plan_event, execute_event = recorder.events("migration")
        assert plan_event.args["eager"] == 4
        assert plan_event.args["lost_channels"] == [1]
        assert execute_event.args["eager"] == 4
        assert execute_event.duration > 0

    def test_executor_cache_and_job_events(self):
        """The executor's facts are wall seconds: its registry counts
        them from ExecStats, and it emits nothing into the cycle-domain
        trace.  Nothing is cached, so a repeated run executes its job
        again."""
        recorder, registry = TraceRecorder(), MetricsRegistry()
        executor = SweepExecutor(jobs=1, obs=Obs(recorder, registry))
        job = SweepJob.build("bp", ("PVC", "DXTC"), 2_000_000)
        executor.run([job])
        executor.run([job])
        assert registry.value("repro_exec_jobs_run_total") == 2
        job_seconds = registry.get("repro_exec_job_seconds").labels()
        assert job_seconds.count == 2
        assert job_seconds.sum == pytest.approx(
            executor.stats.job_seconds_total)
        # Both runs ran in this process: one worker token holds both.
        worker_seconds = executor.stats.worker_seconds
        assert list(worker_seconds) == [worker_token()]
        assert worker_seconds[worker_token()] == pytest.approx(
            executor.stats.job_seconds_total)
        assert recorder.events() == []


_ABSORB_STAMPS = ("run_id", "shard_id", "pid", "worker")


def _fields(event):
    """An event without ``seq`` and the stamps absorbing it added, its
    args as JSONL stores them."""
    args = {k: v for k, v in event.args.items() if k not in _ABSORB_STAMPS}
    return (event.time, event.category, event.name, event.kind,
            event.duration, json.loads(json.dumps(args)))


class TestReportDirTrace:
    """One mix is traced with ``repro run --report-dir``."""

    RUN = ["run", "--mix", "PVC,DXTC", "--policy", "ugpu",
           "--cycles", "5000000"]

    @pytest.fixture(scope="class")
    def bundle(self, tmp_path_factory):
        from repro.cli import main

        bundle = tmp_path_factory.mktemp("run") / "D"
        assert main(self.RUN + ["--report-dir", str(bundle)]) == 0
        return bundle

    def test_bundle_trace_equals_the_in_process_trace(self, bundle):
        recorder = TraceRecorder()
        system = ugpu(build_mix(["PVC", "DXTC"]).applications,
                      obs=Obs(recorder))
        system.run(5_000_000, mix_name="PVC_DXTC")
        bundled = read_jsonl(bundle / "trace.jsonl")
        assert [_fields(e) for e in bundled] == [
            _fields(e) for e in recorder.events()]
        assert summarize(bundled).by_category == {
            "epoch": 1, "migration": 2, "realloc": 3}

    def test_bundle_writes_both_trace_formats(self, bundle):
        events = read_jsonl(bundle / "trace.jsonl")
        assert events and any(e.category == "epoch" for e in events)
        with open(bundle / "trace.chrome.json") as handle:
            assert json.load(handle)["traceEvents"]

    def test_inspect_prints_the_trace_summary(self, bundle, capsys):
        from repro.cli import main

        capsys.readouterr()
        assert main(["inspect", str(bundle)]) == 0
        out = capsys.readouterr().out
        assert (
            "trace: 6 events epoch=1 migration=2 realloc=3\n"
            "epochs: 1 covering 5,000,000 cycles; migration stall 0.0%\n"
            "reallocations: 1 applied, 0 suppressed\n"
        ) in out

    def test_sweep_trace_keeps_one_clock(self, tmp_path, capsys):
        """The executor's wall-second ``job`` events stay off a sweep's
        trace, whose epochs are in cycles."""
        from repro.cli import main

        bundle = tmp_path / "sweep"
        assert main(["sweep", "--policies", "bp", "--cycles", "2000000",
                     "--report-dir", str(bundle)]) == 0
        events = read_jsonl(bundle / "trace.jsonl")
        categories = {e.category for e in events}
        assert "epoch" in categories
        assert "job" not in categories
