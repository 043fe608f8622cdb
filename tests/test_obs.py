"""The observability handle (repro.obs): one ``obs`` argument that owns
the trace recorder, metrics registry and phase profiler."""

import repro.obs
from repro.exec import ObsSnapshot, SweepExecutor, SweepJob
from repro.obs import NULL_METRIC, OFF, Obs, run_job
from repro.profiling import PhaseProfiler
from repro.telemetry import MetricsRegistry, names
from repro.trace import TraceRecorder

JOB = SweepJob.build("bp", ("PVC", "DXTC"), 2_000_000)


class TestHandle:
    def test_off_handle_has_no_sinks_and_ignores_every_call(self):
        assert not OFF.on
        assert Obs().on is False
        OFF.emit("epoch", "e", time=1.0, duration=2.0)
        OFF.begin("epoch")
        OFF.end("epoch")
        OFF.epoch_boundary(0, 0.0)
        with OFF.span("phase"):
            pass
        metric = OFF.metric(names.epochs_total)
        assert metric is NULL_METRIC
        metric.labels(kind="x").inc()
        metric.set(3.0)
        metric.observe(1.0)
        assert metric.value == 0.0

    def test_any_sink_turns_the_handle_on(self):
        # Every sink is one a worker capture feeds, so ``on`` is also
        # the capture rule.
        for handle in (Obs(TraceRecorder()), Obs(registry=MetricsRegistry()),
                       Obs(profiler=PhaseProfiler())):
            assert handle.on
        assert not OFF.on

    def test_calls_reach_their_sinks(self):
        recorder, registry, profiler = (
            TraceRecorder(), MetricsRegistry(), PhaseProfiler())
        obs = Obs(recorder, registry, profiler)
        obs.emit("epoch", "epoch[0]", time=0.0, duration=5.0)
        with obs.span("epoch"):
            obs.metric(names.perf_memo_entries).set(3.0)
        assert [e.name for e in recorder.events()] == ["epoch[0]"]
        # The registry folds the event; a direct metric call adds a fact
        # no event carries.
        assert registry.value(names.EPOCHS_TOTAL) == 1.0
        assert registry.value(names.EPOCH_CYCLES_TOTAL) == 5.0
        assert registry.value(names.PERF_MEMO_ENTRIES) == 3.0
        assert profiler.tree()[("epoch",)].calls == 1

    def test_metric_without_registry_is_the_null_metric(self):
        assert Obs(TraceRecorder()).metric(names.epochs_total) is NULL_METRIC


class TestWorkerCapture:
    def test_uncaptured_job_has_an_empty_envelope(self):
        envelope = run_job(JOB)
        assert envelope.obs == ObsSnapshot()
        assert envelope.result.stp > 0 and envelope.seconds > 0

    def test_captured_job_carries_every_stream(self):
        envelope = run_job(JOB, capture=True)
        assert envelope.obs.events
        assert "worker.job" in envelope.obs.profile
        assert any(f["name"] == names.EPOCHS_TOTAL
                   for f in envelope.obs.metrics)

    def test_absorb_fills_only_the_sinks_the_handle_has(self):
        envelope = run_job(JOB, capture=True)
        recorder = TraceRecorder()
        obs = Obs(recorder)
        absorbed = obs.absorb([envelope], prefix=("worker",),
                              shard_prefix="job", run_id="r" * 16)
        assert absorbed == len(envelope.obs.events) == len(recorder)
        assert {e.args["shard_id"] for e in recorder.events()} == {"job0"}
        assert OFF.absorb([envelope], prefix=("worker",),
                          shard_prefix="job") == 0

    def test_worker_ring_drops_reach_the_orchestrator(self, monkeypatch):
        monkeypatch.setattr(repro.obs, "WORKER_TRACE_CAPACITY", 3)
        recorder, registry = TraceRecorder(), MetricsRegistry()
        obs = Obs(recorder, registry)
        executor = SweepExecutor(obs=obs)
        executor.run([SweepJob.build("ugpu", ("PVC", "DXTC"), 25_000_000),
                      SweepJob.build("bp", ("PVC", "LBM"), 25_000_000)])
        envelopes = executor.last_envelopes
        obs.absorb(envelopes, prefix=("worker",), shard_prefix="job")
        drops = sum(envelope.obs.dropped for envelope in envelopes)
        assert envelopes[0].obs.dropped > 0
        assert recorder.dropped == drops
        obs.gauge_trace_drops()
        assert registry.value(names.TRACE_DROPPED_EVENTS) == drops
