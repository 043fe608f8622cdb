"""Cluster-level tenant placement.

:class:`ClusterScheduler` owns a pool of
:class:`~repro.cluster.node.GPUNode` and admits jobs through the same
placement path as :class:`~repro.cluster.fleet.FleetSimulator`: a
:class:`~repro.cluster.placement.PlacementIndex` kept current at every
admit and depart, and :func:`~repro.cluster.placement.choose_node` over
its bucket heads.  Each :class:`~repro.cluster.placement.PlacementPolicy`
therefore means one ordering in both runners.

:meth:`ClusterScheduler.admit` and :meth:`ClusterScheduler.depart`
expose placement job by job for arrival/departure traces
(:mod:`repro.workloads.arrivals`); :meth:`ClusterScheduler.place` admits
a closed-system batch as back-to-back arrivals, and
:meth:`ClusterScheduler.run` runs every node's tenants under a slicing
policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.node import GPUNode, NodeResult
from repro.cluster.placement import (
    PlacementIndex,
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
    """Place tenant jobs on a pool of GPU nodes and run them.

    Jobs enter through :meth:`admit` or :meth:`place` and leave through
    :meth:`depart`, which keep the placement index and the app-id map
    current; a tenant put on a node of :attr:`nodes` directly is only
    run, never seen by placement.
    """

    def __init__(self, num_nodes: int, config: Optional[GPUConfig] = None,
                 tenants_per_node: int = 2) -> None:
        if num_nodes <= 0:
            raise AllocationError("need at least one node")
        config = config if config is not None else GPUConfig()
        self.config = config
        self.nodes = [
            GPUNode(i, config, max_tenants=tenants_per_node)
            for i in range(num_nodes)
        ]
        self.perf = PerformanceModel(config)
        #: Placement candidates, kept current at every admit and depart.
        self._index = PlacementIndex(tenants_per_node, range(num_nodes))
        #: app id -> (node id, is memory-bound) of every admitted job.
        self._residents: Dict[int, Tuple[int, bool]] = {}

    @property
    def capacity(self) -> int:
        return sum(node.max_tenants for node in self.nodes)

    @property
    def resident_jobs(self) -> int:
        return sum(len(node.tenants) for node in self.nodes)

    def _reindex(self, node: GPUNode) -> None:
        self._index.update(node.node_id, tuple(
            self._residents[t.app_id][1] for t in node.tenants
        ))

    def _check_not_resident(self, app_id: int) -> None:
        held = self._residents.get(app_id)
        if held is not None:
            raise AllocationError(
                f"app {app_id} is already resident on node {held[0]}"
            )

    def place(self, jobs: Sequence[Application],
              policy: PlacementPolicy = PlacementPolicy.DEMAND_AWARE) -> None:
        """Admit a batch as back-to-back arrivals under ``policy``.

        Raises, placing none of the batch, when it exceeds the free
        slots or an app id repeats within it or is already resident."""
        if len(jobs) > self.capacity - self.resident_jobs:
            raise AllocationError(
                f"{len(jobs)} jobs exceed cluster capacity {self.capacity}"
            )
        batch = set()
        for job in jobs:
            if job.app_id in batch:
                raise AllocationError(
                    f"app {job.app_id} appears twice in the batch"
                )
            self._check_not_resident(job.app_id)
            batch.add(job.app_id)
        for job in jobs:
            self.admit(job, policy)

    def admit(self, job: Application,
              policy: PlacementPolicy = PlacementPolicy.LEAST_FRAGMENTED,
              ) -> GPUNode:
        """Place one arriving job under ``policy`` (default: best-fit bin
        packing with a class-mix tie-break, keeping whole nodes free for
        future arrivals).  Deterministic: every ordering in
        :mod:`repro.cluster.placement` ends with the node id.
        """
        self._check_not_resident(job.app_id)
        memory_bound = is_memory_bound(self.perf, job)
        choice = choose_node(policy, self._index.heads(), memory_bound)
        if choice is None:
            raise AllocationError("cluster is full: no free slot for arrival")
        node = self.nodes[choice.node_id]
        node.place(job)
        self._residents[job.app_id] = (node.node_id, memory_bound)
        self._reindex(node)
        return node

    def depart(self, app_id: int) -> GPUNode:
        """Release a departing job's slot; returns the node it held."""
        held = self._residents.pop(app_id, None)
        if held is None:
            raise AllocationError(
                f"app {app_id} is not resident in the cluster"
            )
        node = self.nodes[held[0]]
        node.remove(app_id)
        self._reindex(node)
        return node

    def run(self,
            slicing_policy: Optional[Callable[..., MultitaskSystem]] = None,
            total_cycles: int = 25_000_000,
            ) -> ClusterResult:
        return ClusterResult(nodes=[
            node.run(slicing_policy, total_cycles) for node in self.nodes
        ])

    def schedule_and_run(
        self,
        jobs: Sequence[Application],
        placement: PlacementPolicy = PlacementPolicy.DEMAND_AWARE,
        slicing_policy: Optional[Callable[..., MultitaskSystem]] = None,
        total_cycles: int = 25_000_000,
    ) -> ClusterResult:
        """Convenience: place, run, aggregate."""
        self.place(jobs, placement)
        return self.run(slicing_policy, total_cycles)
