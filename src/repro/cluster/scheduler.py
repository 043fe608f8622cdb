"""Cluster-level tenant placement.

The placement orderings themselves live in
:mod:`repro.cluster.placement` (the policy zoo shared with the fleet
simulator); this module owns the stateful side — a pool of
:class:`~repro.cluster.node.GPUNode`, admit/depart bookkeeping with
placement telemetry, and batch placement + execution for closed-system
cluster runs.  Batch placement under an online policy degenerates to
admitting jobs one at a time, which is exactly how an open system sees
them.

:meth:`ClusterScheduler.admit` and :meth:`ClusterScheduler.depart`
expose the machinery job-by-job for arrival/departure traces
(:mod:`repro.workloads.arrivals`); the placements counter records one
outcome per event — ``placed``, ``rejected`` or ``departed`` — so the
counter always reconciles with the resident-tenant gauges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.cluster.node import GPUNode, NodeResult
from repro.cluster.placement import (
    NodeView,
    PlacementPolicy,
    choose_node,
    is_memory_bound,
)
from repro.core.system import MultitaskSystem
from repro.errors import AllocationError
from repro.gpu.config import GPUConfig
from repro.gpu.kernel import Application
from repro.gpu.performance import PerformanceModel


@dataclass
class ClusterResult:
    """Aggregate outcome of a cluster run."""

    nodes: List[NodeResult]
    placement: PlacementPolicy

    @property
    def cluster_stp(self) -> float:
        """Sum of per-node STP: total normalized work the cluster does."""
        return sum(node.stp for node in self.nodes)

    @property
    def busy_nodes(self) -> int:
        return sum(1 for node in self.nodes if node.result is not None)

    def per_node_summary(self) -> List[tuple]:
        return [
            (node.node_id, "+".join(node.tenants) or "(idle)",
             round(node.stp, 3))
            for node in self.nodes
        ]


class ClusterScheduler:
    """Place tenant jobs on a pool of GPU nodes and run them."""

    def __init__(self, num_nodes: int, config: Optional[GPUConfig] = None,
                 tenants_per_node: int = 2, metrics=None, log=None) -> None:
        """``metrics`` (a telemetry registry) counts placement outcomes
        and gauges per-node fragmentation (free slots / capacity) and
        resident tenants after every admit/depart.  ``log`` (an
        :class:`~repro.obslog.ObsLogger` or a logger bound from one)
        records each admit/reject/depart as a correlated JSONL event;
        both default ``None`` for zero overhead."""
        if num_nodes <= 0:
            raise AllocationError("need at least one node")
        config = config if config is not None else GPUConfig()
        self.config = config
        self.nodes = [
            GPUNode(i, config, max_tenants=tenants_per_node)
            for i in range(num_nodes)
        ]
        self.perf = PerformanceModel(config)
        self.metrics = metrics
        self.log = log
        if metrics is not None:
            from repro.telemetry import names as _names

            self._m_placements = _names.cluster_placements_total(metrics)
            self._m_fragmentation = _names.cluster_node_fragmentation(metrics)
            self._m_tenants = _names.cluster_node_tenants(metrics)
            self._update_node_gauges()

    def _update_node_gauges(self) -> None:
        for node in self.nodes:
            label = str(node.node_id)
            self._m_fragmentation.labels(node=label).set(
                node.free_slots / node.max_tenants
            )
            self._m_tenants.labels(node=label).set(len(node.tenants))

    @property
    def capacity(self) -> int:
        return sum(node.max_tenants for node in self.nodes)

    @property
    def resident_jobs(self) -> int:
        return sum(len(node.tenants) for node in self.nodes)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def place(self, jobs: Sequence[Application],
              policy: PlacementPolicy = PlacementPolicy.DEMAND_AWARE) -> None:
        """Assign all jobs to nodes; raises if the cluster is full (the
        whole batch is rejected, and counted as such)."""
        if len(jobs) > self.capacity - self.resident_jobs:
            if self.metrics is not None:
                self._m_placements.labels(outcome="rejected").inc(len(jobs))
            if self.log is not None:
                self.log.warning(
                    "cluster.reject_batch", jobs=len(jobs),
                    capacity=self.capacity,
                )
            raise AllocationError(
                f"{len(jobs)} jobs exceed cluster capacity {self.capacity}"
            )
        if policy not in (PlacementPolicy.FIRST_FIT,
                          PlacementPolicy.DEMAND_AWARE):
            # The online policies see a batch as back-to-back arrivals.
            for job in jobs:
                self.admit(job, policy)
            return
        if policy is PlacementPolicy.FIRST_FIT:
            # Class-blind: spread tenants breadth-first for load fairness.
            for job in jobs:
                self._emptiest_node().place(job)
                self._note_placement()
            return
        # Demand-aware: interleave the two classes and fill each node
        # completely before the next, so every node receives a
        # complementary memory-bound/compute-bound group.
        memory = [j for j in jobs if is_memory_bound(self.perf, j)]
        compute = [j for j in jobs if not is_memory_bound(self.perf, j)]
        ordered = []
        while memory or compute:
            if memory:
                ordered.append(memory.pop(0))
            if compute:
                ordered.append(compute.pop(0))
        for job in ordered:
            self._first_open_node().place(job)
            self._note_placement()

    def _note_placement(self, outcome: str = "placed") -> None:
        if self.metrics is not None:
            self._m_placements.labels(outcome=outcome).inc()
            self._update_node_gauges()

    def _emptiest_node(self) -> GPUNode:
        target = min(self.nodes, key=lambda n: (len(n.tenants), n.node_id))
        if target.free_slots <= 0:
            raise AllocationError("cluster is full")  # pragma: no cover
        return target

    def _first_open_node(self) -> GPUNode:
        for node in self.nodes:
            if node.free_slots > 0:
                return node
        raise AllocationError("cluster is full")  # pragma: no cover

    # ------------------------------------------------------------------
    # Online admission / departure
    # ------------------------------------------------------------------
    def node_views(self) -> List[NodeView]:
        """The occupancy snapshot the placement zoo chooses over."""
        return [
            NodeView(
                node_id=n.node_id,
                capacity=n.max_tenants,
                free_slots=n.free_slots,
                tenant_classes=tuple(
                    is_memory_bound(self.perf, t) for t in n.tenants
                ),
            )
            for n in self.nodes
        ]

    def admit(self, job: Application,
              policy: PlacementPolicy = PlacementPolicy.LEAST_FRAGMENTED,
              ) -> GPUNode:
        """Place one arriving job under ``policy`` (default: best-fit bin
        packing with a class-mix tie-break, keeping whole nodes free for
        future arrivals).  Deterministic: every ordering in
        :mod:`repro.cluster.placement` ends with the node id.
        """
        choice = choose_node(
            policy, self.node_views(), is_memory_bound(self.perf, job)
        )
        if choice is None:
            self._note_placement(outcome="rejected")
            if self.log is not None:
                self.log.warning(
                    "cluster.reject", job_id=job.app_id,
                    policy=PlacementPolicy.parse(policy).value,
                )
            raise AllocationError("cluster is full: no free slot for arrival")
        target = self.nodes[choice.node_id]
        target.place(job)
        self._note_placement()
        if self.log is not None:
            self.log.debug(
                "cluster.admit", job_id=job.app_id,
                node_id=target.node_id,
                policy=PlacementPolicy.parse(policy).value,
            )
        return target

    def depart(self, app_id: int) -> GPUNode:
        """Release a departing job's slot; returns the node it held."""
        for node in self.nodes:
            if any(t.app_id == app_id for t in node.tenants):
                node.remove(app_id)
                self._note_placement(outcome="departed")
                if self.log is not None:
                    self.log.debug(
                        "cluster.depart", job_id=app_id,
                        node_id=node.node_id,
                    )
                return node
        raise AllocationError(f"app {app_id} is not resident in the cluster")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self,
            slicing_policy: Optional[Callable[..., MultitaskSystem]] = None,
            total_cycles: int = 25_000_000,
            placement: PlacementPolicy = PlacementPolicy.DEMAND_AWARE,
            ) -> ClusterResult:
        results = [
            node.run(slicing_policy, total_cycles) for node in self.nodes
        ]
        return ClusterResult(nodes=results, placement=placement)

    def schedule_and_run(
        self,
        jobs: Sequence[Application],
        placement: PlacementPolicy = PlacementPolicy.DEMAND_AWARE,
        slicing_policy: Optional[Callable[..., MultitaskSystem]] = None,
        total_cycles: int = 25_000_000,
    ) -> ClusterResult:
        """Convenience: place, run, aggregate."""
        self.place(jobs, placement)
        return self.run(slicing_policy, total_cycles, placement)
