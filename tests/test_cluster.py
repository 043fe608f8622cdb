"""Tests for the multi-GPU cluster extension (repro.cluster)."""

import pytest

from repro import MultitaskSystem, build_application
from repro.cluster import ClusterScheduler, GPUNode, PlacementPolicy
from repro.cluster.placement import PlacementIndex, is_memory_bound
from repro.errors import AllocationError
from repro.policies import BPPolicy, UGPUPolicy


def ugpu_system(apps):
    return MultitaskSystem(apps, policy=UGPUPolicy())


def bp_system(apps):
    return MultitaskSystem(apps, policy=BPPolicy())


def jobs(*abbrs):
    return [build_application(a, app_id=i) for i, a in enumerate(abbrs)]


#: Extension E2's eight tenants (benchmarks/test_ext_cluster.py): classes
#: come in same-class pairs, memory-bound first.
E2_TENANTS = ("PVC", "LBM", "DXTC", "CP", "LAVAMD", "EULER3D", "MRI-Q", "PF")


def layout(cluster):
    return [[t.app_id for t in node.tenants] for node in cluster.nodes]


class TestGPUNode:
    def test_tenant_cap(self):
        node = GPUNode(0, max_tenants=2)
        node.place(jobs("PVC")[0])
        node.place(build_application("DXTC", app_id=1))
        assert node.free_slots == 0
        with pytest.raises(AllocationError):
            node.place(build_application("CP", app_id=2))

    def test_duplicate_app_id_rejected(self):
        """Cluster-level ids key every results table; two tenants sharing
        one id would silently shadow each other."""
        node = GPUNode(0)
        node.place(build_application("PVC", app_id=3))
        with pytest.raises(AllocationError, match="already resident"):
            node.place(build_application("DXTC", app_id=3))

    def test_idle_node_result(self):
        result = GPUNode(0).run()
        assert result.result is None
        assert result.stp == 0.0
        assert result.tenant_ids == []
        with pytest.raises(AllocationError, match="idle"):
            result.run_for(0)

    def test_single_tenant_gets_whole_gpu(self):
        node = GPUNode(0)
        node.place(jobs("PVC")[0])
        result = node.run()
        assert result.stp == pytest.approx(1.0, abs=0.05)

    def test_two_tenants_run_under_policy(self):
        node = GPUNode(0)
        for job in jobs("PVC", "DXTC"):
            node.place(job)
        ugpu = node.run(ugpu_system)
        node2 = GPUNode(0)
        for job in jobs("PVC", "DXTC"):
            node2.place(job)
        bp = node2.run(bp_system)
        assert ugpu.stp > bp.stp
        assert ugpu.tenants == ["PVC", "DXTC"]

    def test_node_result_keeps_cluster_app_ids(self):
        """Regression: ``run()`` used to renumber tenants 0..n-1, so a
        node's per-app results could not be keyed back to the cluster
        jobs the scheduler admitted."""
        node = GPUNode(0)
        node.place(build_application("PVC", app_id=7))
        node.place(build_application("DXTC", app_id=42))
        result = node.run()
        assert result.tenant_ids == [7, 42]
        assert result.run_for(42).name == "DXTC"
        assert result.run_for(7).name == "PVC"
        with pytest.raises(AllocationError, match="did not run"):
            result.run_for(0)

    def test_invalid_cap(self):
        with pytest.raises(AllocationError):
            GPUNode(0, max_tenants=0)


class TestClusterScheduler:
    def test_capacity(self):
        cluster = ClusterScheduler(num_nodes=3, tenants_per_node=2)
        assert cluster.capacity == 6

    def test_over_capacity_rejected(self):
        cluster = ClusterScheduler(num_nodes=1, tenants_per_node=2)
        with pytest.raises(AllocationError):
            cluster.place(jobs("PVC", "DXTC", "CP"))

    def test_over_capacity_batch_counts_rejections(self):
        """A batch larger than the free slots is rejected whole: the error
        counts every job turned away, none of them takes a slot, and the
        slots stay open for the next batch."""
        cluster = ClusterScheduler(num_nodes=1, tenants_per_node=2)
        with pytest.raises(AllocationError,
                           match="3 jobs exceed cluster capacity 2"):
            cluster.place(jobs("PVC", "DXTC", "CP"))
        assert cluster.resident_jobs == 0
        assert layout(cluster) == [[]]
        cluster.place(jobs("PVC", "DXTC"))
        assert cluster.resident_jobs == 2

    def test_depart_records_outcome(self):
        """``depart()`` records the departure everywhere admission reads
        it: the node it returns lost the tenant, the id is no longer
        resident, and the index offers the freed node again."""
        cluster = ClusterScheduler(num_nodes=2)
        cluster.admit(build_application("PVC", app_id=9))
        node = cluster.depart(9)
        assert node is cluster.nodes[0]
        assert node.free_slots == node.max_tenants
        assert cluster.resident_jobs == 0
        assert vars(cluster._index) == vars(PlacementIndex(2, range(2)))
        with pytest.raises(AllocationError, match="app 9 is not resident"):
            cluster.depart(9)

    def test_depart_then_readmit_reuses_id(self):
        """An app id freed by departure must be admissible again — open
        systems recycle ids across the trace."""
        cluster = ClusterScheduler(num_nodes=1, tenants_per_node=2)
        cluster.admit(build_application("PVC", app_id=5))
        cluster.depart(5)
        node = cluster.admit(build_application("LBM", app_id=5))
        assert [t.name for t in node.tenants] == ["LBM"]
        with pytest.raises(AllocationError):
            cluster.depart(6)

    def test_app_id_resident_on_one_node_only(self):
        """Regression: admit() only caught a duplicate id within a node,
        so one id could sit on two nodes and depart() freed only the
        first."""
        cluster = ClusterScheduler(num_nodes=2, tenants_per_node=1)
        cluster.admit(build_application("PVC", app_id=0))
        with pytest.raises(AllocationError,
                           match="app 0 is already resident on node 0"):
            cluster.admit(build_application("DXTC", app_id=0))
        assert layout(cluster) == [[0], []]

    def test_batch_with_duplicate_app_id_places_nothing(self):
        cluster = ClusterScheduler(num_nodes=2, tenants_per_node=2)
        twice = [build_application("PVC", app_id=0),
                 build_application("DXTC", app_id=0)]
        with pytest.raises(AllocationError, match="app 0 appears twice"):
            cluster.place(twice, policy=PlacementPolicy.FIRST_FIT)
        assert cluster.resident_jobs == 0

        cluster.admit(build_application("CP", app_id=1))
        with pytest.raises(AllocationError,
                           match="app 1 is already resident on node 0"):
            cluster.place(jobs("PVC", "LBM"))
        assert layout(cluster) == [[1], []]

    def test_first_fit_fills_lowest_id_first(self):
        cluster = ClusterScheduler(num_nodes=2, tenants_per_node=2)
        cluster.place(jobs("PVC", "LBM", "DXTC", "CP"),
                      policy=PlacementPolicy.FIRST_FIT)
        # Class-blind: node 0 fills before node 1 opens.
        assert [t.name for t in cluster.nodes[0].tenants] == ["PVC", "LBM"]
        assert [t.name for t in cluster.nodes[1].tenants] == ["DXTC", "CP"]

    @pytest.mark.parametrize("policy", list(PlacementPolicy),
                             ids=lambda p: p.value)
    def test_batch_place_is_admit_per_job(self, policy):
        """Every policy means one ordering: a batch lands where the same
        jobs admitted one at a time would."""
        batch = ClusterScheduler(num_nodes=4, tenants_per_node=2)
        batch.place(jobs(*E2_TENANTS), policy=policy)
        online = ClusterScheduler(num_nodes=4, tenants_per_node=2)
        for job in jobs(*E2_TENANTS):
            online.admit(job, policy)
        assert layout(batch) == layout(online)

    def test_demand_aware_pairs_classes(self):
        cluster = ClusterScheduler(num_nodes=2, tenants_per_node=2)
        cluster.place(jobs("PVC", "LBM", "DXTC", "CP"),
                      policy=PlacementPolicy.DEMAND_AWARE)
        for node in cluster.nodes:
            classes = {is_memory_bound(cluster.perf, t) for t in node.tenants}
            assert classes == {True, False}  # one of each

    def test_demand_aware_beats_class_blind_packing(self):
        """The cloud argument: pairing complementary tenants gives every
        node reallocation room, raising cluster throughput."""
        job_list = ["PVC", "DXTC", "LBM", "CP"]

        # Adversarial class-blind placement: same-class tenants together.
        blind = ClusterScheduler(num_nodes=2, tenants_per_node=2)
        blind.nodes[0].place(build_application("PVC", app_id=0))
        blind.nodes[0].place(build_application("LBM", app_id=1))
        blind.nodes[1].place(build_application("DXTC", app_id=2))
        blind.nodes[1].place(build_application("CP", app_id=3))
        blind_result = blind.run(ugpu_system)

        aware = ClusterScheduler(num_nodes=2, tenants_per_node=2)
        aware_result = aware.schedule_and_run(
            jobs(*job_list), placement=PlacementPolicy.DEMAND_AWARE
        )
        assert aware_result.cluster_stp > blind_result.cluster_stp

    def test_cluster_result_summary(self):
        cluster = ClusterScheduler(num_nodes=2, tenants_per_node=2)
        result = cluster.schedule_and_run(jobs("PVC", "DXTC"))
        assert result.busy_nodes >= 1
        summary = result.per_node_summary()
        assert len(summary) == 2
        assert any("PVC" in row[1] for row in summary)

    def test_invalid_cluster(self):
        with pytest.raises(AllocationError):
            ClusterScheduler(num_nodes=0)
