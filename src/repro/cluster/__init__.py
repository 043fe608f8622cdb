"""Multi-GPU cluster extension (paper Section 6.6, closing discussion).

"UGPU can be utilized in multi-GPU systems to partition each GPU into
unbalanced slices, improving resource utilization ... idle resources can
then be allocated to other tasks launched by different users, thus
enhancing the utilization of cloud GPU clusters."

This subpackage builds that scenario at two scales:

* a single rack: :class:`~repro.cluster.node.GPUNode` wraps one physical
  GPU running a slicing policy, and the
  :class:`~repro.cluster.scheduler.ClusterScheduler` admits tenant jobs
  across nodes one at a time (or as a batch of back-to-back arrivals)
  and runs every node to a fixed horizon;
* a fleet: :class:`~repro.cluster.fleet.FleetSimulator` drives hundreds
  of nodes and thousands of arriving/departing jobs through fixed
  scheduling rounds, sharding node execution across the
  :class:`~repro.exec.SweepExecutor`'s worker processes
  (:mod:`repro.cluster.shard`) with periodic cross-shard rebalancing.

Both runners place through one path: a
:class:`~repro.cluster.placement.PlacementIndex` of the nodes with a free
slot, and :func:`~repro.cluster.placement.choose_node` ranking its bucket
heads under a policy from the placement zoo
(:mod:`repro.cluster.placement`).
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.cluster.node": ("GPUNode", "NodeResult"),
    "repro.cluster.scheduler": ("ClusterScheduler", "ClusterResult"),
    "repro.cluster.placement": (
        "PlacementPolicy", "NodeView", "PlacementIndex", "placement_key",
        "choose_node",
    ),
    "repro.cluster.fleet": ("FleetSimulator", "FleetResult"),
    "repro.cluster.health": (
        "FleetHealthMonitor", "HealthIncident", "HealthReport",
    ),
    "repro.cluster.shard": ("FleetShardJob",),
}

__all__, __getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
