"""Cross-process fleet observability: worker capture, merged streams,
the fleet's event log, and the health monitor.

The tentpole invariant under test: a sharded fleet run (``jobs=2``,
real pool processes) produces the *same* merged observability as the
serial run — byte-identical metrics exposition, the same node-physics
spans on the same timeline — with every absorbed event carrying the
correlation IDs (``run_id`` / ``shard_id`` / ``pid`` / ``worker``)
that let one Chrome trace show orchestrator and workers on aligned
tracks.
"""

import pickle

import pytest

from repro.cluster import FleetHealthMonitor, FleetSimulator, PlacementPolicy
from repro.cluster.health import KIND_STRAGGLER, KIND_WAIT_STALL
from repro.errors import ConfigError, TelemetryError
from repro.exec import ObsSnapshot, SweepExecutor, SweepJob
from repro.obs import Obs, run_job
from repro.profiling import PhaseProfiler
from repro.telemetry import (
    MetricsRegistry,
    merge_registry,
    snapshot_registry,
    to_prometheus,
)
from repro.trace import (
    KIND_INSTANT,
    KIND_SPAN,
    TraceEvent,
    TraceRecorder,
    chrome_trace,
)
from repro.workloads import poisson_arrivals

CYCLES = 10_000_000
SMALL_JOB = SweepJob.build("bp", ("PVC", "DXTC"), 2_000_000)


def captured(job):
    """``job`` run under a worker capture handle, as the executor does."""
    return run_job(job, capture=True)


def fleet(jobs: int, obs: Obs, health=None,
          placement=PlacementPolicy.LEAST_FRAGMENTED):
    """One tiny fleet run; returns (result, the executor's envelopes)."""
    schedule = poisson_arrivals(
        mean_interarrival_cycles=500_000,
        horizon_cycles=CYCLES,
        seed=0,
        instructions_per_kernel=50_000_000,
    )
    with SweepExecutor(jobs=jobs) as executor:
        simulator = FleetSimulator(
            4,
            schedule,
            placement,
            horizon_cycles=CYCLES,
            instructions_per_kernel=50_000_000,
            executor=executor,
            obs=obs,
            health=health,
        )
        return simulator.run(), executor.last_envelopes


def run_fleet(jobs: int, *, health=None):
    """One tiny observed fleet run; returns (result, registry, recorder)."""
    registry = MetricsRegistry()
    recorder = TraceRecorder()
    result, _ = fleet(jobs, Obs(recorder, registry), health)
    return result, registry, recorder


# ----------------------------------------------------------------------
# Tentpole: serial and sharded runs merge to identical aggregates
# ----------------------------------------------------------------------
class TestWorkerCaptureRoundTrip:
    @pytest.fixture(scope="class")
    def serial(self):
        return run_fleet(1)

    @pytest.fixture(scope="class")
    def sharded(self):
        return run_fleet(2)

    def test_results_byte_identical(self, serial, sharded):
        assert serial[0].summary() == sharded[0].summary()

    def test_merged_metrics_byte_identical(self, serial, sharded):
        # The full exposition — fleet gauges plus merged worker_*
        # counters — must agree byte-for-byte, because worker families
        # are counters folded in deterministic job order.
        assert to_prometheus(serial[1]) == to_prometheus(sharded[1])
        text = to_prometheus(serial[1])
        assert "repro_worker_node_rounds_total" in text
        assert "repro_worker_instructions_total" in text

    def test_node_spans_identical_on_the_merged_timeline(
        self, serial, sharded
    ):
        def physics(recorder):
            return [
                (e.time, e.name, e.duration, e.args["node_id"],
                 e.args.get("job_id"))
                for e in recorder.events()
                if e.category == "node"
            ]

        spans = physics(serial[2])
        assert spans  # worker node-physics spans made it across
        assert spans == physics(sharded[2])

    def test_fleet_events_identical_serial_and_sharded(self, serial, sharded):
        # The run event names the run's shape but not its worker count.
        def lifecycle(recorder):
            return [(e.time, e.name, e.args) for e in recorder.events("fleet")]

        assert lifecycle(serial[2])[0][1] == "run"
        assert lifecycle(serial[2]) == lifecycle(sharded[2])

    def test_absorbed_events_carry_correlation_ids(self, sharded):
        result, _, recorder = sharded
        node_events = recorder.events("node")
        assert node_events
        for event in node_events:
            assert event.args["run_id"]
            assert event.args["shard_id"].startswith("r")
            assert event.args["pid"] > 0
            assert event.args["worker"]

    def test_worker_timestamps_reanchored_at_round_start(self, serial):
        _, _, recorder = serial
        # Round-relative worker cycles were shifted onto the fleet
        # timeline: later rounds' node spans start at later cycles.
        starts = sorted({e.time for e in recorder.events("node")})
        assert len(starts) > 1
        assert starts[-1] > starts[0] >= 0.0

    def test_capture_off_means_no_worker_events(self):
        # An off handle captures nothing: every shard envelope is empty.
        _, envelopes = fleet(1, Obs())
        assert envelopes
        assert all(e.obs == ObsSnapshot() for e in envelopes)


# ----------------------------------------------------------------------
# Envelope pickling + absorbing a run's envelopes
# ----------------------------------------------------------------------
class TestEnvelopeAndCache:
    def test_envelope_pickle_round_trip(self):
        envelope = captured(SMALL_JOB)
        clone = pickle.loads(pickle.dumps(envelope))
        assert clone.result == envelope.result
        assert clone.pid == envelope.pid
        assert clone.worker == envelope.worker
        assert clone.obs.events == envelope.obs.events
        assert clone.obs.metrics == envelope.obs.metrics
        assert clone.obs.profile == envelope.obs.profile
        assert "worker.job" in clone.obs.profile

    def test_merged_trace_count_equals_sum_of_parts(self):
        executor = SweepExecutor()
        jobs = [SMALL_JOB, SweepJob.build("ugpu", ("PVC", "DXTC"), 2_000_000)]
        recorder = TraceRecorder()
        obs = Obs(recorder)
        executor.run(jobs, obs=obs)
        absorbed = obs.absorb(
            executor.last_envelopes, prefix=("worker",), shard_prefix="job",
            run_id="r" * 16,
        )
        expected = sum(len(e.obs.events) for e in executor.last_envelopes)
        assert absorbed == expected == len(recorder.events())
        shard_ids = {e.args["shard_id"] for e in recorder.events()}
        assert shard_ids == {"job0", "job1"}


# ----------------------------------------------------------------------
# Registry snapshot/merge (satellite a)
# ----------------------------------------------------------------------
class TestRegistryMerge:
    def test_counters_merge_to_exact_sums(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.counter("repro_t_total", "t").inc(2.0)
        worker.counter("repro_t_total", "t").inc(3.0)
        merge_registry(parent, snapshot_registry(worker))
        assert parent.get("repro_t_total").value == 5.0

    def test_labeled_counters_merge_per_child(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        fam = worker.counter("repro_t_total", "t", labels=("k",))
        fam.labels(k="a").inc(1)
        fam.labels(k="b").inc(2)
        merge_registry(parent, snapshot_registry(worker))
        merge_registry(parent, snapshot_registry(worker))
        merged = {
            labels: child.value
            for labels, child in parent.get("repro_t_total").samples()
        }
        assert merged[("a",)] == 2.0
        assert merged[("b",)] == 4.0

    def test_histograms_merge_bucketwise(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        buckets = (1.0, 10.0)
        parent.histogram("repro_h", "h", buckets=buckets).observe(0.5)
        worker.histogram("repro_h", "h", buckets=buckets).observe(5.0)
        merge_registry(parent, snapshot_registry(worker))
        hist = parent.get("repro_h").labels()
        assert hist.count == 2
        assert hist.sum == 5.5

    def test_conflicting_buckets_raise_named_telemetry_error(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.histogram("repro_h", "h", buckets=(1.0, 10.0))
        worker.histogram("repro_h", "h", buckets=(2.0, 20.0))
        with pytest.raises(TelemetryError, match="repro_h"):
            merge_registry(parent, snapshot_registry(worker))

    def test_conflicting_kind_raises(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.counter("repro_x", "x")
        worker.gauge("repro_x", "x")
        with pytest.raises(TelemetryError, match="repro_x"):
            merge_registry(parent, snapshot_registry(worker))

    def test_conflicting_labels_raise(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.counter("repro_x", "x", labels=("a",))
        worker.counter("repro_x", "x", labels=("b",))
        worker.get("repro_x").labels(b="1").inc()
        with pytest.raises(TelemetryError, match="repro_x"):
            merge_registry(parent, snapshot_registry(worker))

    def test_gauge_merge_is_last_write_wins(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.gauge("repro_g", "g").set(1.0)
        worker.gauge("repro_g", "g").set(9.0)
        merge_registry(parent, snapshot_registry(worker))
        assert parent.get("repro_g").value == 9.0


# ----------------------------------------------------------------------
# TraceRecorder.absorb
# ----------------------------------------------------------------------
class TestRecorderAbsorb:
    def _worker_events(self):
        worker = TraceRecorder()
        worker.emit("node", "node0", time=10.0, duration=5.0, node=0)
        worker.emit("node", "PVC", time=0.0, duration=3.0, node=0, job_id=7)
        return worker.events()

    def test_absorb_shifts_stamps_and_resequences(self):
        recorder = TraceRecorder()
        recorder.emit("fleet", "arrive", time=1.0)
        count = recorder.absorb(
            self._worker_events(), time_shift=100.0,
            run_id="deadbeef", shard_id="r0.s0", pid=1234, worker="tok",
        )
        assert count == 2
        events = recorder.events()
        assert [e.seq for e in events] == [0, 1, 2]
        absorbed = events[1]
        assert absorbed.time == 110.0
        assert absorbed.duration == 5.0
        assert absorbed.args["run_id"] == "deadbeef"
        assert absorbed.args["pid"] == 1234
        # Worker-set args are preserved, not overridden.
        assert absorbed.args["node"] == 0

    def test_absorb_skips_none_correlation_values(self):
        recorder = TraceRecorder()
        recorder.absorb(self._worker_events(), run_id=None, pid=9)
        assert "run_id" not in recorder.events()[0].args
        assert recorder.events()[0].args["pid"] == 9


# ----------------------------------------------------------------------
# Chrome-trace track stability (satellite c)
# ----------------------------------------------------------------------
class TestChromeTracks:
    def _span(self, seq, token, os_pid, node):
        return TraceEvent(
            seq=seq, time=float(seq), category="node", name=f"node{node}",
            kind=KIND_SPAN, duration=1.0,
            args={"worker": token, "pid": os_pid, "node_id": node},
        )

    def test_pid_reuse_does_not_interleave_tracks(self):
        # Two different worker lifetimes sharing one recycled OS pid
        # must still land on two distinct Chrome process tracks.
        events = [self._span(0, "tok-a", 42, 0), self._span(1, "tok-b", 42, 1)]
        doc = chrome_trace(events)
        spans = [r for r in doc["traceEvents"] if r.get("ph") == "X"]
        assert {r["pid"] for r in spans} == {1, 2}
        names = [
            r["args"]["name"] for r in doc["traceEvents"]
            if r.get("ph") == "M" and r["name"] == "process_name"
        ]
        assert names == [
            "orchestrator", "worker-1 (pid 42)", "worker-2 (pid 42)"
        ]

    def test_workerless_trace_keeps_the_single_process_layout(self):
        events = [
            TraceEvent(seq=0, time=0.0, category="epoch", name="epoch"),
        ]
        doc = chrome_trace(events)
        assert all(r["pid"] == 0 for r in doc["traceEvents"])
        assert not any(
            r.get("ph") == "M" and r["name"] == "process_name"
            for r in doc["traceEvents"]
        )

    def test_node_rows_labeled_per_node(self):
        events = [self._span(0, "tok", 1, 0), self._span(1, "tok", 1, 3)]
        labels = [
            r["args"]["name"] for r in chrome_trace(events)["traceEvents"]
            if r.get("ph") == "M" and r["name"] == "thread_name"
        ]
        assert labels == ["node 0", "node 3"]


# ----------------------------------------------------------------------
# The fleet's event log: one trace, every event stamped with its run
# ----------------------------------------------------------------------
class TestObsLogger:
    def test_fleet_run_emits_correlated_records(self):
        recorder = TraceRecorder()
        obs = Obs(recorder)
        placements = (PlacementPolicy.FIRST_FIT,
                      PlacementPolicy.LEAST_FRAGMENTED)
        for placement in placements:
            fleet(1, obs, placement=placement)
        events = recorder.events("fleet")
        assert {"run", "arrive", "admit", "round"} <= {e.name for e in events}
        runs = [e for e in events if e.name == "run"]
        assert [e.args["placement"] for e in runs] == [
            p.value for p in placements]
        assert len({e.args["run_id"] for e in runs}) == len(placements)
        for run in runs:
            assert run.kind == KIND_INSTANT and run.time == 0.0
            assert set(run.args) == {
                "run_id", "placement", "slicing", "nodes",
                "tenants_per_node", "horizon", "round_cycles", "arrivals"}
        # Every fleet event carries the run_id of the run it belongs to:
        # the one its placement's ``run`` event opened.
        run_id = None
        for event in events:
            if event.name == "run":
                run_id = event.args["run_id"]
            assert len(event.args["run_id"]) == 16
            assert event.args["run_id"] == run_id


# ----------------------------------------------------------------------
# PhaseProfiler snapshot/absorb
# ----------------------------------------------------------------------
class TestProfilerMerge:
    def test_absorb_grafts_under_prefix(self):
        worker = PhaseProfiler()
        with worker.span("job"):
            with worker.span("node"):
                pass
        snapshot = worker.snapshot()
        assert set(snapshot) == {"job", "job/node"}

        parent = PhaseProfiler()
        with parent.span("fleet.execute"):
            pass
        parent.absorb(snapshot, prefix=("fleet.execute",))
        parent.absorb(snapshot, prefix=("fleet.execute",))
        merged = parent.snapshot()
        assert merged["fleet.execute/job"][0] == 2
        assert merged["fleet.execute/job/node"][0] == 2


# ----------------------------------------------------------------------
# Health monitor (synthetic round feeds)
# ----------------------------------------------------------------------
class TestHealthMonitor:
    def test_straggler_detection(self):
        monitor = FleetHealthMonitor()
        fired = monitor.observe_round(
            0, job_seconds=(0.1, 0.1, 0.1, 1.0)
        )
        assert [i.kind for i in fired] == [KIND_STRAGGLER]
        assert fired[0].value == pytest.approx(10.0)
        assert "10.0x" in fired[0].detail

    def test_straggler_needs_enough_samples_and_magnitude(self):
        monitor = FleetHealthMonitor()
        # Two samples: no median worth trusting.
        assert monitor.observe_round(0, job_seconds=(0.1, 1.0)) == []
        # Microsecond noise below straggler_min_seconds never alarms.
        assert monitor.observe_round(
            1, job_seconds=(1e-6, 1e-6, 1e-6, 1e-4)
        ) == []

    def test_wait_stall_fires_and_rearms(self):
        monitor = FleetHealthMonitor(stall_rounds=3)
        fired = []
        for round_index, depth in enumerate((1, 2, 3, 4, 5, 6, 7, 8)):
            fired.extend(
                monitor.observe_round(round_index, wait_depth=depth)
            )
        # Window of 4 depths fills at round 3 and re-arms after firing,
        # so the second alarm needs another full window.
        assert [i.kind for i in fired] == [KIND_WAIT_STALL] * 2
        assert [i.round_index for i in fired] == [3, 7]

    def test_draining_queue_never_stalls(self):
        monitor = FleetHealthMonitor(stall_rounds=3)
        for round_index, depth in enumerate((5, 4, 5, 4, 5, 4, 5)):
            assert monitor.observe_round(round_index, wait_depth=depth) == []

    def test_report_format_and_counts(self):
        monitor = FleetHealthMonitor()
        monitor.observe_round(0, job_seconds=(0.1, 0.1, 0.1, 1.0))
        report = monitor.report()
        assert not report.healthy
        assert report.counts() == {KIND_STRAGGLER: 1}
        assert "straggler x1" in report.format()
        healthy = FleetHealthMonitor().report()
        assert healthy.healthy and "no incidents" in healthy.format()

    def test_incidents_surface_in_all_three_streams(self):
        """An incident is one ``health`` event, so it reaches both event
        sinks: the trace keeps it and the registry counts it."""
        registry = MetricsRegistry()
        recorder = TraceRecorder()
        monitor = FleetHealthMonitor(obs=Obs(recorder, registry))
        monitor.run_id = "h" * 16
        monitor.observe_round(3, now=7.0, job_seconds=(0.1, 0.1, 0.1, 1.0))
        text = to_prometheus(registry)
        assert 'repro_health_incidents_total{kind="straggler"} 1' in text
        events = recorder.events("health")
        assert len(events) == 1
        assert events[0].name == KIND_STRAGGLER
        assert events[0].time == 7.0
        assert events[0].args["run_id"] == "h" * 16

    def test_threshold_validation(self):
        with pytest.raises(ConfigError):
            FleetHealthMonitor(straggler_factor=1.0)
        with pytest.raises(ConfigError):
            FleetHealthMonitor(stall_rounds=1)
        with pytest.raises(ConfigError):
            FleetHealthMonitor(straggler_min_seconds=-0.1)

    def test_fleet_attaches_monitor_and_reports(self):
        monitor = FleetHealthMonitor()
        result, _, _ = run_fleet(1, health=monitor)
        assert result.health is not None
        assert result.health.rounds > 0
        assert monitor.run_id  # the simulator filled in its run_id
