"""Tests for the phase profiler (repro.profiling.profiler): span
nesting, self/cumulative attribution, the flat table, Chrome-trace
export, and the zero-overhead contract of every instrumented layer
under the default off handle (``obs=OFF``)."""

import json

import pytest

from repro.errors import SimulationError
from repro.obs import OFF, Obs
from repro.profiling import PhaseProfiler


class FakeClock:
    """Returns scripted timestamps; each call consumes one."""

    def __init__(self, times):
        self._times = list(times)

    def __call__(self):
        return self._times.pop(0)


class TestSpanNesting:
    def test_self_and_cumulative_on_hand_built_tree(self):
        # a[0..11] containing b[1..3], b[4..5], c[6..10]:
        #   a.cum = 11, b.cum = 2 + 1 = 3, c.cum = 4, a.self = 11 - 7 = 4
        clock = FakeClock([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 10.0, 11.0])
        prof = PhaseProfiler(clock=clock)
        prof.begin("a")
        prof.begin("b")
        prof.end("b")
        prof.begin("b")
        prof.end("b")
        prof.begin("c")
        prof.end("c")
        prof.end("a")

        tree = prof.tree()
        assert tree[("a",)].cum_seconds == pytest.approx(11.0)
        assert tree[("a",)].self_seconds == pytest.approx(4.0)
        assert tree[("a", "b")].calls == 2
        assert tree[("a", "b")].cum_seconds == pytest.approx(3.0)
        assert tree[("a", "b")].self_seconds == pytest.approx(3.0)
        assert tree[("a", "c")].cum_seconds == pytest.approx(4.0)
        assert prof.total_seconds() == pytest.approx(11.0)

    def test_flat_aggregates_same_name_across_paths(self):
        # x under a and x under b fold into one flat row.
        clock = FakeClock([0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 13.0, 14.0])
        prof = PhaseProfiler(clock=clock)
        with prof.span("a"):
            with prof.span("x"):
                pass
        with prof.span("b"):
            with prof.span("x"):
                pass
        flat = {s.name: s for s in prof.flat()}
        assert flat["x"].calls == 2
        assert flat["x"].cum_seconds == pytest.approx(3.0)

    def test_recursive_phase_not_double_counted_in_cum(self):
        # x[0..10] containing x[2..5]: flat cum counts only the outer 10.
        clock = FakeClock([0.0, 2.0, 5.0, 10.0])
        prof = PhaseProfiler(clock=clock)
        prof.begin("x")
        prof.begin("x")
        prof.end("x")
        prof.end("x")
        flat = {s.name: s for s in prof.flat()}
        assert flat["x"].calls == 2
        assert flat["x"].cum_seconds == pytest.approx(10.0)
        assert flat["x"].self_seconds == pytest.approx(10.0)

    def test_end_returns_duration(self):
        prof = PhaseProfiler(clock=FakeClock([1.0, 3.5]))
        prof.begin("p")
        assert prof.end("p") == pytest.approx(2.5)

    def test_mismatched_nesting_raises(self):
        prof = PhaseProfiler()
        prof.begin("outer")
        prof.begin("inner")
        with pytest.raises(SimulationError, match="mismatched"):
            prof.end("outer")

    def test_end_without_begin_raises(self):
        prof = PhaseProfiler()
        with pytest.raises(SimulationError, match="no open span"):
            prof.end("ghost")

    def test_report_with_open_span_raises(self):
        prof = PhaseProfiler()
        prof.begin("open")
        with pytest.raises(SimulationError, match="open spans"):
            prof.tree()

    def test_span_context_manager_closes_on_exception(self):
        prof = PhaseProfiler(clock=FakeClock([0.0, 1.0]))
        with pytest.raises(RuntimeError):
            with prof.span("risky"):
                raise RuntimeError("boom")
        assert prof.tree()[("risky",)].calls == 1


class TestEventRing:
    def test_capacity_bounds_events_but_not_stats(self):
        times = [float(t) for t in range(20)]
        prof = PhaseProfiler(clock=FakeClock(times), events_capacity=4)
        for _ in range(10):
            prof.begin("p")
            prof.end("p")
        assert prof.dropped == 6
        assert len(prof.trace_events()) == 4
        assert prof.tree()[("p",)].calls == 10

    def test_capacity_must_be_positive(self):
        with pytest.raises(SimulationError):
            PhaseProfiler(events_capacity=0)


class TestReports:
    def _profiled(self):
        clock = FakeClock([0.0, 1.0, 3.0, 4.0])
        prof = PhaseProfiler(clock=clock)
        with prof.span("outer"):
            with prof.span("inner"):
                pass
        return prof

    def test_format_table_lists_phases(self):
        table = self._profiled().format_table()
        assert "phase" in table and "self%" in table
        assert "outer" in table and "inner" in table

    def test_format_table_top_truncates(self):
        table = self._profiled().format_table(top=1)
        assert "1 more phases" in table

    def test_format_table_rejects_bad_sort(self):
        with pytest.raises(SimulationError):
            self._profiled().format_table(sort="alphabetical")

    def test_format_table_cum_sort_leads_with_outer(self):
        lines = self._profiled().format_table(sort="cum").splitlines()
        assert lines[1].startswith("outer")

    def test_absorbed_orphan_paths_count_toward_the_total(self):
        # A sweep grafts worker phases under ("worker",), a prefix no
        # span records: worker.job [0..3] around epoch [1..2].
        worker = PhaseProfiler(clock=FakeClock([0.0, 1.0, 2.0, 3.0]))
        with worker.span("worker.job"):
            with worker.span("epoch"):
                pass
        prof = PhaseProfiler()
        prof.absorb(worker.snapshot(), prefix=("worker",))
        assert prof.total_seconds() == pytest.approx(3.0)
        shares = {line.split()[0]: line.split()[4]
                  for line in prof.format_table().splitlines()[1:]}
        assert shares == {"worker.job": "66.7%", "epoch": "33.3%"}


class TestChromeExport:
    def test_trace_events_are_microseconds_from_origin(self):
        clock = FakeClock([100.0, 100.001, 100.002, 100.004])
        prof = PhaseProfiler(clock=clock)
        with prof.span("outer"):
            with prof.span("inner"):
                pass
        events = prof.trace_events()
        by_name = {e.name: e for e in events}
        assert by_name["inner"].time == pytest.approx(1_000.0, rel=1e-6)
        assert by_name["inner"].duration == pytest.approx(1_000.0, rel=1e-6)
        assert by_name["outer"].time == pytest.approx(0.0, abs=1e-6)
        assert by_name["outer"].args["path"] == "outer"
        assert by_name["inner"].args["depth"] == 1
        assert all(e.category == "phase" for e in events)

    def test_written_file_is_chrome_trace_json(self, tmp_path):
        prof = PhaseProfiler(clock=FakeClock([0.0, 0.5]))
        with prof.span("p"):
            pass
        path = tmp_path / "prof.chrome.json"
        count = prof.write_chrome_trace(path)
        assert count > 0
        doc = json.loads(path.read_text())
        spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert spans and spans[0]["name"] == "p"
        # 0.5 s span -> 500_000 us in Chrome-trace microseconds.
        assert spans[0]["dur"] == pytest.approx(500_000.0, rel=1e-6)


class TestZeroOverheadContract:
    """Profiling must leave results and hot paths untouched."""

    def _run(self, profiler):
        from repro.core.system import MultitaskSystem, clear_solo_ipc_cache
        from repro.policies import UGPUPolicy
        from repro.workloads.mixes import build_mix

        clear_solo_ipc_cache()
        system = MultitaskSystem(
            build_mix(["PVC", "DXTC"]).applications,
            policy=UGPUPolicy(),
            epoch_cycles=100_000,
            obs=Obs(profiler=profiler) if profiler is not None else OFF,
        )
        return system.run(3_000_000)

    def test_profiled_run_matches_unprofiled_run(self):
        plain = self._run(None)
        prof = PhaseProfiler()
        profiled = self._run(prof)
        assert profiled.stp == plain.stp
        assert profiled.antt == plain.antt
        assert profiled.repartitions == plain.repartitions
        assert len(profiled.epochs) == len(plain.epochs)
        # And the profiler actually saw the run.
        flat = {s.name for s in prof.flat()}
        assert {"epoch", "epoch.advance", "epoch.policy",
                "run.solo_ipc"} <= flat

    def test_profiler_attribute_defaults_to_none_everywhere(self):
        from repro.core.system import MultitaskSystem
        from repro.hbm.config import HBMConfig
        from repro.hbm.controller import MemoryController
        from repro.pagemove.engine import MigrationEngine
        from repro.policies import BPPolicy
        from repro.vm.driver import GPUDriver
        from repro.workloads.mixes import build_mix

        system = MultitaskSystem(build_mix(["PVC", "DXTC"]).applications,
                                 policy=BPPolicy())
        assert system.obs is OFF
        assert MemoryController(HBMConfig()).obs is OFF
        driver = GPUDriver()
        assert driver.obs is OFF
        assert MigrationEngine(driver).obs is OFF
        assert OFF.profiler is None

    def test_phase_profiler_does_not_shadow_policy_profiler(self):
        """The runner's phase profiler and the policy's epoch-counter
        profiler (the paper's Section 3.2 instrument) stay distinct."""
        from repro.core.profiler import EpochProfiler
        from repro.core.system import MultitaskSystem
        from repro.policies import UGPUPolicy
        from repro.workloads.mixes import build_mix

        prof = PhaseProfiler()
        system = MultitaskSystem(build_mix(["PVC", "DXTC"]).applications,
                                 policy=UGPUPolicy(), obs=Obs(profiler=prof))
        assert system.obs.profiler is prof
        assert isinstance(system.policy.profiler, EpochProfiler)
        assert not isinstance(system.policy.profiler, PhaseProfiler)

    def test_driver_and_engine_spans_nest(self):
        from repro.pagemove.engine import MigrationEngine
        from repro.vm.driver import FaultKind, GPUDriver

        prof = PhaseProfiler()
        obs = Obs(profiler=prof)
        driver = GPUDriver(num_channel_groups=4, pages_per_channel=64,
                           obs=obs)
        driver.register_app(0, channels=range(0, 2))
        engine = MigrationEngine(driver, obs=obs)
        for vpn in range(8):
            driver.handle_fault(FaultKind.DEMAND, 0, vpn)
        plan = engine.plan_channel_reallocation(0, [1, 2])
        engine.execute(plan)
        flat = {s.name: s for s in prof.flat()}
        assert flat["vm.handle_fault"].calls >= 8
        assert flat["pagemove.plan"].calls == 1
        assert flat["pagemove.execute"].calls == 1
        # Faults serviced during execute() nest under it.
        tree = prof.tree()
        nested = [p for p in tree
                  if p[-1] == "vm.handle_fault" and len(p) > 1]
        assert nested and all(p[0] == "pagemove.execute" for p in nested)

    def test_hbm_controller_drain_span(self):
        from repro.hbm.config import HBMConfig
        from repro.hbm.controller import (
            MemoryController,
            MemoryRequest,
            RequestKind,
        )

        prof = PhaseProfiler()
        controller = MemoryController(HBMConfig(), obs=Obs(profiler=prof))
        for i in range(4):
            controller.enqueue(MemoryRequest(
                kind=RequestKind.READ, bank_group=0, bank=0,
                row=i, column=0, arrival=controller.now,
            ))
        served = controller.drain()
        assert len(served) == 4
        assert prof.tree()[("hbm.service_requests",)].calls == 1
