"""Tests for the policy composition layer and the open-system lifecycle.

Covers the PR's acceptance criteria beyond the golden regression:
closed-system equivalence with an empty arrival schedule, the
arrival -> admission -> departure event ordering, seeded-Poisson
determinism, interval STP/ANTT against hand-computed values, online
cluster placement, the memoized solo-IPC cache and the ``min_np``
error contract.
"""

import dataclasses
import math
import pickle

import pytest

from repro.cluster import ClusterScheduler, GPUNode
from repro.cluster.placement import (
    NodeView,
    PlacementIndex,
    PlacementPolicy,
    choose_node,
    is_memory_bound,
)
from repro.core.system import (
    MultitaskSystem,
    OpenSystemResult,
    SystemResult,
    clear_solo_ipc_cache,
)
from repro.errors import AllocationError, ConfigError, SimulationError
from repro.gpu.kernel import Application
from repro.metrics.multiprogram import (
    AppRun,
    IntervalRun,
    antt,
    interval_antt,
    interval_stp,
    makespan,
    mean_queueing_delay,
    stp,
)
from repro.obs import Obs
from repro.policies import (
    BPBigSmallPolicy,
    BPPolicy,
    BPSmallBigPolicy,
    CDSearchPolicy,
    MPSPolicy,
    PartitionPolicy,
    UGPUPolicy,
)
from repro.trace import TraceRecorder
from repro.workloads import build_application, build_mix
from repro.workloads.arrivals import (
    ArrivalEvent,
    ArrivalSchedule,
    poisson_arrivals,
)

HORIZON = 10_000_000
EPOCH = 1_000_000


def _apps():
    return build_mix(["PVC", "DXTC"]).applications


def _result_fingerprint(result: SystemResult):
    return (
        result.policy,
        result.repartitions,
        [(r.app_id, r.name, r.ipc.hex(), r.ipc_alone.hex()) for r in result.runs],
        [(e.index, e.migration_cycles, e.repartitioned,
          sorted(e.instructions.items())) for e in result.epochs],
    )


class TestClosedEquivalence:
    def test_empty_arrival_schedule_is_the_closed_system(self):
        baseline = MultitaskSystem(
            _apps(), epoch_cycles=EPOCH, policy=UGPUPolicy()
        ).run(HORIZON)
        with_empty = MultitaskSystem(
            _apps(), epoch_cycles=EPOCH, policy=UGPUPolicy(),
            arrivals=ArrivalSchedule(),
        ).run(HORIZON)
        assert isinstance(with_empty, SystemResult)
        assert _result_fingerprint(baseline) == _result_fingerprint(with_empty)

    def test_closed_system_still_rejects_empty_mix(self):
        with pytest.raises(ConfigError, match="at least one application"):
            MultitaskSystem([], policy=BPPolicy())

    def test_open_system_allows_empty_initial_mix(self):
        schedule = ArrivalSchedule.from_pairs(
            [(0, build_application("PVC", app_id=100))]
        )
        result = MultitaskSystem(
            [], epoch_cycles=EPOCH, policy=BPPolicy(), arrivals=schedule
        ).run(HORIZON)
        assert isinstance(result, OpenSystemResult)
        assert result.admissions == 1


class TestLifecycleOrdering:
    def _run_traced(self, policy=None):
        tracer = TraceRecorder()
        arrival = build_application("CP", app_id=100)
        schedule = ArrivalSchedule(
            [ArrivalEvent(1_500_000, arrival, budget_instructions=1)]
        )
        system = MultitaskSystem(
            _apps(), epoch_cycles=EPOCH, obs=Obs(tracer),
            policy=policy or PartitionPolicy(), arrivals=schedule,
        )
        result = system.run(HORIZON)
        return system, result, tracer

    def test_arrival_then_admission_then_departure(self):
        system, result, tracer = self._run_traced()
        arrivals = tracer.events("arrival")
        admissions = tracer.events("admission")
        departures = tracer.events("departure")
        assert [e.args["app_id"] for e in arrivals] == [100]
        assert [e.args["app_id"] for e in admissions] == [100]
        assert [e.args["app_id"] for e in departures] == [100]
        # Arrival stamps the schedule cycle; admission the boundary that
        # granted the slice; departure a strictly later boundary.
        assert arrivals[0].time == 1_500_000
        assert admissions[0].time == 2_000_000
        assert admissions[0].args["queueing_delay"] == 500_000
        assert departures[0].time > admissions[0].time
        assert arrivals[0].seq < admissions[0].seq < departures[0].seq

    def test_counts_and_lifecycle_fields(self):
        system, result, tracer = self._run_traced()
        assert (result.arrivals, result.admissions, result.departures) == (1, 1, 1)
        run = next(r for r in result.runs if r.app_id == 100)
        assert run.arrival_cycle == 1_500_000
        assert run.admit_cycle == 2_000_000
        assert run.depart_cycle == 3_000_000
        assert run.queueing_delay == 500_000
        # The departed job's slot was released and its slice reclaimed.
        assert 100 not in system.apps
        assert 100 in system.departed
        assert 100 not in system.partition.allocations()

    def test_departure_frees_slot_for_same_boundary_arrival(self):
        tracer = TraceRecorder()
        first = build_application("CP", app_id=100)
        second = build_application("SRAD", app_id=101)
        schedule = ArrivalSchedule([
            ArrivalEvent(500_000, first, budget_instructions=1),
            ArrivalEvent(1_500_000, second, budget_instructions=1),
        ])
        system = MultitaskSystem(
            _apps(), epoch_cycles=EPOCH, obs=Obs(tracer),
            policy=PartitionPolicy(), arrivals=schedule, max_slots=3,
        )
        system.run(HORIZON)
        # Slot math: 2 residents + CP fills max_slots=3.  CP departs at
        # the 2M boundary, freeing the slot SRAD (queued at the same
        # boundary) takes immediately.
        admissions = {e.args["app_id"]: e.time for e in tracer.events("admission")}
        departures = {e.args["app_id"]: e.time for e in tracer.events("departure")}
        assert admissions[100] == 1_000_000
        assert departures[100] == 2_000_000
        assert admissions[101] == 2_000_000

    @pytest.mark.parametrize("policy_factory", [
        PartitionPolicy, BPPolicy, MPSPolicy, CDSearchPolicy, UGPUPolicy,
    ])
    def test_membership_hooks_repartition_every_policy(self, policy_factory):
        system, result, tracer = self._run_traced(policy_factory())
        # Admission and departure each flow through the policy hooks and
        # count as repartitions of the shared slice state.
        assert result.repartitions >= 2
        for state in system.apps.values():
            assert state.allocation.sms > 0
            assert state.allocation.channels > 0

    def test_open_run_drains_early(self):
        schedule = ArrivalSchedule.from_pairs(
            [(0, build_application("CP", app_id=100))], budget_instructions=1
        )
        result = MultitaskSystem(
            [], epoch_cycles=EPOCH, policy=BPPolicy(), arrivals=schedule
        ).run(HORIZON)
        # Admitted at the first boundary, departed at the second; nothing
        # left to simulate afterwards.
        assert result.departures == 1
        assert len(result.epochs) == 2


class TestPoissonDeterminism:
    def test_same_seed_same_schedule(self):
        a = poisson_arrivals(2_000_000, HORIZON, seed=7)
        b = poisson_arrivals(2_000_000, HORIZON, seed=7)
        assert [(e.cycle, e.app.name, e.budget_instructions) for e in a] == \
               [(e.cycle, e.app.name, e.budget_instructions) for e in b]

    def test_different_seed_different_schedule(self):
        a = poisson_arrivals(2_000_000, HORIZON, seed=7)
        b = poisson_arrivals(2_000_000, HORIZON, seed=8)
        assert [(e.cycle, e.app.name) for e in a] != \
               [(e.cycle, e.app.name) for e in b]

    def test_same_seed_same_open_run(self):
        def one_run():
            return MultitaskSystem(
                [], epoch_cycles=EPOCH, policy=UGPUPolicy(),
                arrivals=poisson_arrivals(1_000_000, HORIZON, seed=3),
            ).run(HORIZON)

        a, b = one_run(), one_run()
        assert a.stp == b.stp
        assert a.antt == b.antt
        assert a.repartitions == b.repartitions
        assert [(r.app_id, r.admit_cycle, r.depart_cycle, r.instructions)
                for r in a.runs] == \
               [(r.app_id, r.admit_cycle, r.depart_cycle, r.instructions)
                for r in b.runs]

    def test_duplicate_app_ids_rejected(self):
        app = build_application("PVC", app_id=5)
        with pytest.raises(ConfigError, match="duplicate app_id"):
            ArrivalSchedule([ArrivalEvent(0, app), ArrivalEvent(10, app)])


class TestIntervalMetrics:
    def test_hand_computed_values(self):
        horizon = 100
        full = IntervalRun(app_id=0, name="full", instructions=50,
                           ipc_alone=1.0)
        windowed = IntervalRun(app_id=1, name="windowed", instructions=25,
                               ipc_alone=1.0, arrival_cycle=10,
                               admit_cycle=20, depart_cycle=70)
        runs = [full, windowed]
        # full: present 100/100, IPC 0.5, NP 0.5 -> contributes 0.5
        # windowed: present 50/100, IPC 0.5, NP 0.5 -> contributes 0.25
        assert interval_stp(runs, horizon) == pytest.approx(0.75)
        # Both slow down 2x; occupancy weighting keeps ANTT at 2.
        assert interval_antt(runs, horizon) == pytest.approx(2.0)
        assert mean_queueing_delay(runs) == pytest.approx(5.0)
        assert makespan(runs, horizon) == 100
        assert windowed.queueing_delay == 10

    def test_reduces_to_closed_forms_at_full_residency(self):
        horizon = 1000
        closed = [
            AppRun(app_id=0, name="a", ipc=0.8, ipc_alone=1.0),
            AppRun(app_id=1, name="b", ipc=0.25, ipc_alone=0.5),
        ]
        interval = [
            IntervalRun(app_id=r.app_id, name=r.name,
                        instructions=int(r.ipc * horizon), ipc_alone=r.ipc_alone)
            for r in closed
        ]
        assert interval_stp(interval, horizon) == pytest.approx(stp(closed))
        assert interval_antt(interval, horizon) == pytest.approx(antt(closed))

    def test_never_resident_app_rejected_by_antt(self):
        runs = [IntervalRun(app_id=0, name="x", instructions=0, ipc_alone=1.0,
                            admit_cycle=50)]
        with pytest.raises(ConfigError, match="ever resident"):
            interval_antt(runs, 50)


class TestOnlineCluster:
    def test_least_fragmented_best_fit_with_class_tiebreak(self):
        cluster = ClusterScheduler(num_nodes=3, tenants_per_node=2)
        jobs = [build_application(a, app_id=i)
                for i, a in enumerate(["PVC", "DXTC", "SRAD", "CP"])]
        # Best-fit: fill node 0 before opening node 1.
        assert cluster.admit(jobs[0]).node_id == 0
        assert cluster.admit(jobs[1]).node_id == 0
        assert cluster.admit(jobs[2]).node_id == 1
        assert cluster.admit(jobs[3]).node_id == 1
        assert cluster.resident_jobs == 4

    def test_depart_frees_slot_reused_by_next_arrival(self):
        cluster = ClusterScheduler(num_nodes=2, tenants_per_node=2)
        jobs = [build_application(a, app_id=i)
                for i, a in enumerate(["PVC", "DXTC", "SRAD"])]
        for job in jobs:
            cluster.admit(job)
        assert cluster.depart(0).node_id == 0
        late = build_application("CP", app_id=9)
        # Node 1 (1/2 full) is less fragmented than node 0 (1/2 full) only
        # by id tie-break; both have one slot, CP complements either.
        assert cluster.admit(late).node_id in (0, 1)
        assert cluster.resident_jobs == 3
        with pytest.raises(AllocationError, match="not resident"):
            cluster.depart(0)

    def test_full_cluster_rejects_arrival(self):
        cluster = ClusterScheduler(num_nodes=1, tenants_per_node=1)
        cluster.admit(build_application("PVC", app_id=0))
        with pytest.raises(AllocationError, match="full"):
            cluster.admit(build_application("DXTC", app_id=1))

    def test_poisson_trace_placement_is_deterministic(self):
        """Admits and departs over a seeded trace repeat exactly, keep the
        scheduler's placement index equal to one rebuilt from the nodes,
        and land every job where a scan over all nodes would."""

        def classes(cluster, node):
            return tuple(is_memory_bound(cluster.perf, t) for t in node.tenants)

        def check_index(cluster):
            rebuilt = PlacementIndex(2)
            for node in cluster.nodes:
                rebuilt.update(node.node_id, classes(cluster, node))
            assert vars(cluster._index) == vars(rebuilt)

        def placements(policy):
            cluster = ClusterScheduler(num_nodes=4, tenants_per_node=2)
            resident = []
            placed = []
            events = poisson_arrivals(2_000_000, HORIZON, seed=11)
            for i, event in enumerate(events):
                if i % 3 == 2:
                    cluster.depart(resident.pop(0))
                    check_index(cluster)
                views = [
                    NodeView(node_id=n.node_id, capacity=n.max_tenants,
                             free_slots=n.free_slots,
                             tenant_classes=classes(cluster, n))
                    for n in cluster.nodes
                ]
                expected = choose_node(
                    policy, views, is_memory_bound(cluster.perf, event.app)
                )
                node = cluster.admit(event.app, policy)
                assert node.node_id == expected.node_id
                check_index(cluster)
                resident.append(event.app.app_id)
                placed.append((event.app.name, node.node_id))
            return placed

        for policy in PlacementPolicy:
            first, second = placements(policy), placements(policy)
            assert first == second
            assert len(first) > 0

    def test_node_remove_unknown_app_rejected(self):
        node = GPUNode(0, max_tenants=2)
        with pytest.raises(AllocationError, match="not resident"):
            node.remove(42)


class TestSoloIpcMemoization:
    def test_cache_is_shared_across_systems(self):
        clear_solo_ipc_cache()
        system = MultitaskSystem(_apps(), epoch_cycles=EPOCH, policy=BPPolicy())
        calls = []
        original = system.perf.throughput

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        system.perf.throughput = counting
        first = system.alone_ipcs(HORIZON)
        cold_calls = len(calls)
        assert cold_calls > 0
        second = system.alone_ipcs(HORIZON)
        assert second == first
        assert len(calls) == cold_calls  # warm: no model evaluations

        other = MultitaskSystem(_apps(), epoch_cycles=EPOCH, policy=UGPUPolicy())
        other.perf.throughput = counting
        warm = {k: v for k, v in other.alone_ipcs(HORIZON).items()}
        assert warm == first
        assert len(calls) == cold_calls  # reused across instances

    def test_cache_keys_on_kernel_values(self):
        """Equal kernels share an entry (a pickled copy, as from another
        process, is warm); a kernel that differs in one field is not."""
        clear_solo_ipc_cache()
        system = MultitaskSystem(_apps(), epoch_cycles=EPOCH, policy=BPPolicy())
        app = system.apps[0].app
        ipc = system._solo_ipc(app, HORIZON)
        calls = []
        original = system.perf.throughput

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        system.perf.throughput = counting
        copy = Application(app.app_id, app.name,
                           pickle.loads(pickle.dumps(app.kernels)))
        assert copy.kernels[0] is not app.kernels[0]
        assert system._solo_ipc(copy, HORIZON) == ipc
        assert calls == []
        longer = Application(app.app_id, app.name, [
            dataclasses.replace(k, instructions=k.instructions + 1)
            for k in app.kernels])
        system._solo_ipc(longer, HORIZON)
        assert calls

    def test_cache_distinguishes_horizons(self):
        clear_solo_ipc_cache()
        system = MultitaskSystem(_apps(), epoch_cycles=EPOCH, policy=BPPolicy())
        short = system.alone_ipcs(EPOCH)
        long = system.alone_ipcs(HORIZON)
        assert set(short) == set(long)


class TestMinNpContract:
    def test_empty_runs_raise_simulation_error(self):
        result = SystemResult(policy="BP", mix_name="empty", runs=[],
                              epochs=[], total_cycles=HORIZON)
        with pytest.raises(SimulationError, match="no application runs"):
            result.min_np
        # stp/antt keep their ConfigError contract from the metrics layer.
        with pytest.raises(ConfigError):
            result.stp


class TestPolicyValidation:
    def test_bp_variants_need_two_apps(self):
        three = build_mix(["PVC", "DXTC", "SRAD"]).applications
        for policy in (BPBigSmallPolicy(), BPSmallBigPolicy()):
            with pytest.raises(AllocationError, match="two applications"):
                MultitaskSystem(three, policy=policy)

    def test_max_slots_below_initial_mix_rejected(self):
        with pytest.raises(ConfigError, match="max_slots"):
            MultitaskSystem(_apps(), policy=BPPolicy(), max_slots=1,
                            arrivals=ArrivalSchedule.from_pairs(
                                [(0, build_application("CP", app_id=9))]))

    def test_duplicate_initial_app_ids_rejected(self):
        """Two initial apps with one id would run as one app."""
        apps = [build_application("PVC", app_id=0),
                build_application("DXTC", app_id=0)]
        for policy in (BPPolicy(), UGPUPolicy()):
            with pytest.raises(ConfigError, match="duplicate app_id 0"):
                MultitaskSystem(apps, policy=policy)

    def test_initial_app_id_in_the_schedule_rejected(self):
        """A seeded schedule's ids start at 100: its first admission
        would overwrite an initial app 100."""
        schedule = poisson_arrivals(2_000_000, HORIZON, seed=0)
        assert 100 in {event.app.app_id for event in schedule}
        with pytest.raises(ConfigError, match="app_id 100 is both"):
            MultitaskSystem([build_application("PVC", app_id=100)],
                            policy=UGPUPolicy(), arrivals=schedule)

    def test_nonpositive_epoch_cycles_rejected(self):
        for epoch_cycles in (0, -EPOCH):
            with pytest.raises(ConfigError,
                               match="epoch_cycles must be positive"):
                MultitaskSystem(_apps(), epoch_cycles=epoch_cycles,
                                policy=BPPolicy())

    def test_nonpositive_horizon_rejected(self):
        schedule = ArrivalSchedule.from_pairs(
            [(0, build_application("CP", app_id=9))])
        for system in (
            MultitaskSystem(_apps(), policy=BPPolicy()),
            MultitaskSystem([], policy=BPPolicy(), arrivals=schedule),
        ):
            for total_cycles in (0, -1):
                with pytest.raises(ConfigError,
                                   match="total_cycles must be positive"):
                    system.run(total_cycles)
