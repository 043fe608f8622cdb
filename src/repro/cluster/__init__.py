"""Multi-GPU cluster extension (paper Section 6.6, closing discussion).

"UGPU can be utilized in multi-GPU systems to partition each GPU into
unbalanced slices, improving resource utilization ... idle resources can
then be allocated to other tasks launched by different users, thus
enhancing the utilization of cloud GPU clusters."

This subpackage builds that scenario at two scales:

* a single rack: :class:`~repro.cluster.node.GPUNode` wraps one physical
  GPU running a slicing policy, and the
  :class:`~repro.cluster.scheduler.ClusterScheduler` places tenant jobs
  across nodes under a policy from the placement zoo
  (:mod:`repro.cluster.placement`);
* a fleet: :class:`~repro.cluster.fleet.FleetSimulator` drives hundreds
  of nodes and thousands of arriving/departing jobs through fixed
  scheduling rounds, sharding node execution across the
  :class:`~repro.exec.SweepExecutor`'s worker processes
  (:mod:`repro.cluster.shard`) with periodic cross-shard rebalancing.
"""

from repro.cluster.fleet import FleetResult, FleetSimulator
from repro.cluster.health import (
    FleetHealthMonitor,
    HealthIncident,
    HealthReport,
)
from repro.cluster.node import GPUNode, NodeResult
from repro.cluster.placement import (
    NodeView,
    PlacementIndex,
    PlacementPolicy,
    choose_node,
    placement_key,
)
from repro.cluster.scheduler import ClusterResult, ClusterScheduler
from repro.cluster.shard import FleetShardJob, FleetShardResult

__all__ = [
    "GPUNode",
    "NodeResult",
    "ClusterScheduler",
    "ClusterResult",
    "PlacementPolicy",
    "NodeView",
    "PlacementIndex",
    "placement_key",
    "choose_node",
    "FleetSimulator",
    "FleetResult",
    "FleetHealthMonitor",
    "HealthIncident",
    "HealthReport",
    "FleetShardJob",
    "FleetShardResult",
]
