"""Tests for the fleet-scale cluster simulator (repro.cluster.fleet),
its shard physics (repro.cluster.shard), the placement-policy zoo
(repro.cluster.placement), and the arrivals empty-catalog regression."""

import json
import os
import pickle
import pickletools

import pytest

from repro.cluster import (
    FleetShardJob,
    FleetShardResult,
    FleetSimulator,
    NodeView,
    PlacementIndex,
    PlacementPolicy,
    choose_node,
)
from repro.cluster.shard import apportion, slice_node
from repro.errors import ConfigError, SimulationError
from repro.exec import ResultCache, SweepExecutor
from repro.gpu import GPUConfig, PerformanceModel
from repro.telemetry import MetricsRegistry
from repro.telemetry.names import FLEET_JOBS_TOTAL, FLEET_ROUNDS_TOTAL
from repro.workloads import build_application, poisson_arrivals

#: Small kernels so arriving jobs genuinely depart within test horizons.
IPK = 50_000_000
HORIZON = 30_000_000
ROUND = 2_500_000

#: ``FleetResult.summary()`` of the fixture below under every placement
#: and slicing (12 nodes), plus the saturated 2-node run, recorded with
#: the full-scan placement that predates the placement index.
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "fleet_summaries.json")
with open(GOLDEN_PATH) as _handle:
    GOLDEN_SUMMARIES = json.load(_handle)


def schedule(mean=150_000, horizon=HORIZON, seed=0, **kwargs):
    return poisson_arrivals(mean, horizon, seed=seed,
                            instructions_per_kernel=IPK, **kwargs)


def simulator(nodes=12, placement=PlacementPolicy.LEAST_FRAGMENTED,
              sched=None, **kwargs):
    kwargs.setdefault("round_cycles", ROUND)
    kwargs.setdefault("horizon_cycles", HORIZON)
    kwargs.setdefault("instructions_per_kernel", IPK)
    return FleetSimulator(
        nodes, sched if sched is not None else schedule(), placement,
        **kwargs)


class TestArrivalCatalog:
    def test_empty_catalog_rejected(self):
        """Regression: ``catalog=[]`` used to fall through the falsy
        check and silently widen to the full Table 2 pool."""
        with pytest.raises(ConfigError, match="catalog cannot be empty"):
            poisson_arrivals(1_000_000, 10_000_000, catalog=[])

    def test_none_catalog_uses_full_pool(self):
        names = {e.app.name for e in schedule(mean=100_000)}
        assert len(names) > 5

    def test_explicit_catalog_respected(self):
        names = {e.app.name for e in schedule(catalog=["PVC", "DXTC"])}
        assert names <= {"PVC", "DXTC"}


class TestPlacementZoo:
    def view(self, node_id, free, classes=(), capacity=4):
        return NodeView(node_id=node_id, capacity=capacity, free_slots=free,
                        tenant_classes=tuple(classes))

    def test_parse(self):
        assert PlacementPolicy.parse("frag_aware") is PlacementPolicy.FRAG_AWARE
        assert (PlacementPolicy.parse(PlacementPolicy.CONSOLIDATE)
                is PlacementPolicy.CONSOLIDATE)
        with pytest.raises(ConfigError, match="unknown placement"):
            PlacementPolicy.parse("round_robin")

    def test_full_cluster_returns_none(self):
        views = [self.view(0, 0, [True] * 4), self.view(1, 0, [False] * 4)]
        for policy in PlacementPolicy:
            assert choose_node(policy, views, True) is None

    def test_first_fit_takes_lowest_id(self):
        views = [self.view(2, 4), self.view(0, 1, [True] * 3),
                 self.view(1, 4)]
        assert choose_node(PlacementPolicy.FIRST_FIT, views, True).node_id == 0

    def test_frag_aware_best_fit_avoids_empty_nodes(self):
        """Ting et al.: pack into the fullest open node; opening a fresh
        node is the last resort."""
        views = [self.view(0, 4), self.view(1, 3, [True]),
                 self.view(2, 1, [True] * 3)]
        assert choose_node(PlacementPolicy.FRAG_AWARE, views, False).node_id == 2
        # Only an empty node left -> it is still used.
        assert choose_node(
            PlacementPolicy.FRAG_AWARE, [self.view(5, 4)], False).node_id == 5

    def test_consolidate_prefers_complementary_active_node(self):
        views = [self.view(0, 4), self.view(1, 2, [False, False]),
                 self.view(2, 2, [True, True])]
        # A memory-bound job consolidates onto the compute-bound node.
        assert choose_node(
            PlacementPolicy.CONSOLIDATE, views, True).node_id == 1
        assert choose_node(
            PlacementPolicy.CONSOLIDATE, views, False).node_id == 2

    def test_demand_aware_seeks_opposite_class(self):
        views = [self.view(0, 2, [True, True]), self.view(1, 2, [False, False])]
        assert choose_node(
            PlacementPolicy.DEMAND_AWARE, views, True).node_id == 1


class TestSlicing:
    def test_apportion_conserves_and_floors(self):
        shares = apportion(32, [4.0, 1.0, 1.0], 4)
        assert sum(shares) == 32
        assert min(shares) >= 4
        assert shares[0] > shares[1]

    def test_apportion_infeasible_total(self):
        with pytest.raises(ConfigError, match="cannot apportion"):
            apportion(7, [1.0, 1.0], 4)

    def test_single_tenant_gets_whole_gpu(self):
        config = GPUConfig()
        model = PerformanceModel(config)
        kernels = [build_application("PVC").kernels[0]]
        assert slice_node(model, config, kernels, "ugpu") == [
            (config.num_sms, config.num_channels)
        ]

    def test_mig_slices_are_rigid_and_waste_remainder(self):
        config = GPUConfig()
        model = PerformanceModel(config)
        kernels = [build_application(a).kernels[0]
                   for a in ("PVC", "DXTC", "LBM")]
        slices = slice_node(model, config, kernels, "mig")
        assert slices == [(config.num_sms // 3, config.num_channels // 3)] * 3
        assert sum(s for s, _ in slices) < config.num_sms  # dark silicon

    def test_ugpu_slices_conserve_and_follow_demand(self):
        config = GPUConfig()
        model = PerformanceModel(config)
        pvc = build_application("PVC").kernels[0]      # memory-bound
        dxtc = build_application("DXTC").kernels[0]    # compute-bound
        slices = slice_node(model, config, [pvc, dxtc], "ugpu")
        assert sum(s for s, _ in slices) == config.num_sms
        assert sum(c for _, c in slices) == config.num_channels
        (pvc_sms, pvc_ch), (dxtc_sms, dxtc_ch) = slices
        assert pvc_ch > dxtc_ch      # bandwidth goes to the demander
        assert dxtc_sms > pvc_sms    # compute goes the other way


class TestShardJob:
    def node_row(self, node_id=0, *abbrs):
        """Fresh resident tenants (cursor 0, no budget, no penalty)."""
        return (node_id, tuple(
            (100 + i, a, 0, 0, None, 1.0) for i, a in enumerate(abbrs)
        ))

    def shard(self, *nodes, **kwargs):
        kwargs.setdefault("instructions_per_kernel", IPK)
        return FleetShardJob(nodes=nodes, round_cycles=ROUND, **kwargs)

    def test_key_excludes_label(self):
        row = self.node_row(0, "PVC", "DXTC")
        a = self.shard(row, label="round3")
        b = self.shard(row, label="round9")
        assert a.key() == b.key()
        assert a.key() != self.shard(row, slicing="mig").key()
        assert a.key() != self.shard(
            row, instructions_per_kernel=2 * IPK).key()

    def test_run_is_pure(self):
        job = self.shard(self.node_row(0, "PVC", "DXTC"))
        assert job.run() == job.run()

    def test_outcome_independent_of_shard_grouping(self):
        """The byte-identity invariant: a node's physics cannot depend on
        which shard it landed in."""
        a = self.node_row(0, "PVC", "DXTC")
        b = self.node_row(1, "LBM", "CP", "MRI-Q")
        together = self.shard(a, b).run()
        alone = [self.shard(n).run() for n in (a, b)]
        assert together.nodes == (alone[0].nodes[0], alone[1].nodes[0])

    def test_budget_departure_mid_round(self):
        result = self.shard((0, ((7, "PVC", 0, 0, 1000, 1.0),))).run()
        assert result.nodes[0][0] == 0
        (job_id, retired, _, _, _, remaining, departed,
         active_cycles), = result.nodes[0][1]
        assert job_id == 7
        assert departed
        assert retired == 1000
        assert remaining == 0
        assert 0 < active_cycles < ROUND

    @pytest.mark.parametrize("row, ipk, problem", [
        ((7, "PVC", 0, -1, None, 1.0), IPK,
         "tenant progress cursors must be >= 0"),
        ((7, "PVC", 1, 0, None, 1.0), IPK,
         "kernel_index 1 out of range for PVC"),
        # PVC at this IPK is one 50M-instruction kernel.
        ((7, "PVC", 0, 10**12, None, 1.0), IPK,
         "kernel_instructions_done 1000000000000 is past the end of "
         "kernel 0"),
        ((7, "PVC", 0, IPK, None, 1.0), IPK,
         "kernel_instructions_done 50000000 is past the end of kernel 0"),
        ((7, "PVC", 0, 0, 0, 1.0), IPK,
         "remaining_budget must be positive or None"),
        ((7, "PVC", 0, 0, None, 1.5), IPK,
         r"penalty_factor must be in \[0, 1\]"),
        ((7, "PVC", 0, 0, None, -0.25), IPK,
         r"penalty_factor must be in \[0, 1\]"),
        ((7, "PVC", 0, 0, None, 1.0), 0,
         "instructions_per_kernel must be positive"),
    ], ids=["negative-cursor", "kernel-index-out-of-range",
            "cursor-past-kernel-end", "cursor-at-kernel-end",
            "budget-not-positive", "penalty-above-one",
            "penalty-below-zero", "ipk-not-positive"])
    def test_bad_row_rejected(self, row, ipk, problem):
        """Every row check names the job and the node, and fires before
        the row's physics instead of returning a wrong outcome."""
        node = (3, (row, (8, "DXTC", 0, 0, None, 1.0)))
        job = self.shard(node, instructions_per_kernel=ipk)
        with pytest.raises(ConfigError, match=f"job 7 on node 3: {problem}"):
            job.run()
        with pytest.raises(ConfigError, match=f"job 7 on node 3: {problem}"):
            job.run_observed(metrics=MetricsRegistry())

    def test_last_instruction_of_kernel_accepted(self):
        """The cursor one short of the kernel end is valid, and the
        round resumes from it (PVC relaunches its one kernel)."""
        job = self.shard((0, ((7, "PVC", 0, IPK - 1, None, 1.0),)))
        (_, retired, _, kernel_index, done, _, _, _), = job.run().nodes[0][1]
        assert (kernel_index, done) == (0, (IPK - 1 + retired) % IPK)

    @staticmethod
    def object_opcodes(value) -> int:
        """Object-building opcodes in ``value``'s pickle: one per object
        that is not a builtin container or scalar."""
        return sum(
            1 for opcode, _, _ in pickletools.genops(pickle.dumps(value))
            if opcode.name in ("NEWOBJ", "NEWOBJ_EX", "REDUCE", "BUILD")
        )

    def test_wire_stays_flat(self):
        """Nodes and tenants ship as plain rows: pickling 64 nodes builds
        exactly as many objects as pickling one."""
        def job(nodes):
            return self.shard(*(
                self.node_row(i, "PVC", "DXTC", "LBM", "CP")
                for i in range(nodes)
            ))

        one, many = job(1), job(64)
        assert self.object_opcodes(one) == self.object_opcodes(many)
        assert (self.object_opcodes(one.run())
                == self.object_opcodes(many.run()))

    def test_cache_types_are_segregated(self, tmp_path):
        job = self.shard(self.node_row(0, "PVC"))
        result = job.run()
        fleet_cache = ResultCache(tmp_path / "fleet",
                                  result_types=(FleetShardResult,))
        fleet_cache.put(job.key(), result)
        assert fleet_cache.get(job.key()) == result
        sweep_cache = ResultCache(tmp_path / "sweeps")
        with pytest.raises(ConfigError, match="cache stores"):
            sweep_cache.put(job.key(), result)
        with pytest.raises(ConfigError, match="result_types"):
            ResultCache(tmp_path / "bad", result_types=())


class TestFleetSimulator:
    def test_deterministic(self):
        a = simulator().run()
        b = simulator().run()
        assert a.summary() == b.summary()
        assert a.runs == b.runs

    def test_serial_vs_sharded_byte_identical(self, tmp_path):
        """The tentpole invariant: sharding node execution over worker
        processes (with a persistent pool and a typed cache) must not
        change a single result."""
        serial = simulator(placement=PlacementPolicy.CONSOLIDATE).run()
        cache = ResultCache(tmp_path / "fleet",
                            result_types=(FleetShardResult,))
        with SweepExecutor(jobs=2, cache=cache) as executor:
            sharded = simulator(placement=PlacementPolicy.CONSOLIDATE,
                                executor=executor).run()
            cached = simulator(placement=PlacementPolicy.CONSOLIDATE,
                               executor=executor).run()
        for result in (sharded, cached):
            assert result.runs == serial.runs
            assert result.summary() == serial.summary()
            assert result.energy == serial.energy
            assert result.migrated_bytes == serial.migrated_bytes
        assert cache.hits > 0  # second run replayed from the cache

    def test_single_use(self):
        sim = simulator(nodes=2)
        sim.run()
        with pytest.raises(SimulationError, match="single-use"):
            sim.run()

    def test_conservation(self):
        """Every arrival is admitted or still waiting; every departure
        was admitted; one IntervalRun per admission."""
        result = simulator(nodes=2).run()   # saturated: queue backs up
        assert result.arrivals == result.admissions + result.waiting_at_horizon
        assert result.departures <= result.admissions
        assert len(result.runs) == result.admissions
        assert result.waiting_at_horizon > 0
        departed = [r for r in result.runs if r.depart_cycle is not None]
        assert len(departed) == result.departures
        assert all(r.instructions > 0 for r in departed)

    def test_ugpu_slicing_beats_mig_on_antt(self):
        """The paper's claim at fleet scale: unbalanced slices turn MIG's
        dark remainder into throughput, so jobs turn around faster."""
        ugpu = simulator(slicing="ugpu").run()
        mig = simulator(slicing="mig").run()
        assert ugpu.antt < mig.antt

    def test_consolidate_reports_energy_and_migrates(self):
        result = simulator(placement=PlacementPolicy.CONSOLIDATE).run()
        assert result.energy is not None
        assert result.energy.total > 0
        assert result.migrations > 0
        assert result.migrated_bytes > 0
        plain = simulator(placement=PlacementPolicy.FIRST_FIT).run()
        assert plain.energy is None
        assert plain.migrations == 0

    def test_metrics_reconcile_with_result(self):
        registry = MetricsRegistry()
        result = simulator(metrics=registry).run()
        assert registry.value(
            FLEET_JOBS_TOTAL, event="arrived") == result.arrivals
        assert registry.value(
            FLEET_JOBS_TOTAL, event="admitted") == result.admissions
        assert registry.value(
            FLEET_JOBS_TOTAL, event="departed") == result.departures
        assert registry.value(FLEET_ROUNDS_TOTAL) == result.rounds

    def test_schedule_ipk_mismatch_rejected(self):
        bad = poisson_arrivals(150_000, HORIZON, seed=0,
                               instructions_per_kernel=2 * IPK)
        with pytest.raises(ConfigError, match="instructions_per_kernel"):
            simulator(sched=bad).run()

    def test_invalid_configuration(self):
        with pytest.raises(ConfigError, match="num_nodes"):
            simulator(nodes=0)
        with pytest.raises(ConfigError, match="slicing"):
            simulator(slicing="smx")
        with pytest.raises(ConfigError, match="floors"):
            simulator(tenants_per_node=30)
        with pytest.raises(ConfigError, match="migration_penalty"):
            simulator(migration_penalty=1.5)

    @pytest.mark.parametrize("key", sorted(GOLDEN_SUMMARIES))
    def test_summary_matches_golden(self, key):
        placement, slicing, nodes = key.split(":")
        result = simulator(nodes=int(nodes), placement=placement,
                           slicing=slicing).run()
        assert result.summary() == GOLDEN_SUMMARIES[key]

    def test_placement_sees_buckets_not_nodes(self, monkeypatch):
        """Admission and the rebalance pass offer ``choose_node`` one view
        per (free slots, class set) bucket, whatever the node count."""
        sizes = []

        def counting(policy, views, job_is_memory_bound):
            sizes.append(len(views))
            return choose_node(policy, views, job_is_memory_bound)

        monkeypatch.setattr("repro.cluster.fleet.choose_node", counting)
        sim = simulator(nodes=200, placement=PlacementPolicy.CONSOLIDATE)
        result = sim.run()
        assert result.migrations > 0    # the rebalance pass placed too
        assert len(sizes) > result.admissions
        assert max(sizes) <= 4 * sim.tenants_per_node

    @pytest.mark.parametrize("placement", [PlacementPolicy.FRAG_AWARE,
                                           PlacementPolicy.CONSOLIDATE])
    def test_index_tracks_residents(self, placement, monkeypatch):
        """Before every admission phase, the index kept up to date across
        admissions, departures and drains equals one built from scratch
        over the nodes' residents."""
        admit = FleetSimulator._admit
        phases = []

        def checked(sim, wait, now):
            fresh = PlacementIndex(sim.tenants_per_node)
            for node in sim._nodes:
                fresh.update(node.node_id, tuple(
                    sim._memory_bound(r.abbr) for r in node.resident))
            assert vars(sim._index) == vars(fresh), f"cycle {now}"
            phases.append(now)
            return admit(sim, wait, now)

        monkeypatch.setattr(FleetSimulator, "_admit", checked)
        result = simulator(placement=placement).run()
        assert result.migrations > 0
        assert len(phases) == result.rounds

    def test_drained_fleet_stops_early(self):
        """A sparse stream that drains before the horizon must not spin
        through empty rounds forever."""
        sparse = poisson_arrivals(5_000_000, 20_000_000, seed=1,
                                  instructions_per_kernel=IPK)
        result = simulator(sched=sparse, horizon_cycles=10**12,
                           nodes=4).run()
        assert result.departures == result.arrivals
        assert result.rounds < 10**12 // ROUND
        assert result.waiting_at_horizon == 0
