"""The placement-policy zoo: one chooser for every cluster scheduler.

Each policy is a deterministic preference ordering over the nodes that
still have a free slot, evaluated per arriving job (an open system sees
jobs one at a time; batch placement degenerates to back-to-back
arrivals).  The orderings are grounded in the related work the fleet
simulator compares against (PAPERS.md):

* ``FIRST_FIT`` — lowest node id with a free slot.  The class-blind
  baseline every bin-packing paper measures against.
* ``DEMAND_AWARE`` — prefer a node already holding an opposite-class
  tenant (the paper's cloud-utilization argument: a node mixing
  memory-bound and compute-bound tenants has reallocation room), then an
  empty node, then best-fit.
* ``LEAST_FRAGMENTED`` — best-fit bin packing with a class-mix
  tie-break: the fullest node that still has a slot, preferring nodes
  the arrival complements.  This is :meth:`ClusterScheduler.admit`'s
  historical ordering, unchanged.
* ``FRAG_AWARE`` — the online fragmentation-aware scheduler of Ting et
  al. (GPU cluster scheduling under fragmentation-aware gradient
  descent): class-blind best-fit that refuses to open an empty node
  while any partial node has room, keeping whole nodes free for large
  future arrivals; the fleet simulator pairs it with a periodic
  defragmentation pass that drains nearly-empty nodes.
* ``CONSOLIDATE`` — the throughput+energy manager of Saraha et al.
  (dynamic MIG management for inference serving): pack active nodes
  first so idle nodes can power down, with a class-mix tie-break for
  throughput; the fleet simulator pairs it with an energy-scored
  consolidation pass (migration joules vs. static-power savings,
  :mod:`repro.metrics.energy`).

Every ordering ends with the node id, so placement is deterministic and
independent of dict/iteration order — a requirement for the sharded
fleet runs being byte-identical to serial ones.

The contract every ordering keeps: a key is built from the node's free
slots and the *set* of classes it holds (memory-bound, compute-bound,
both or neither), then the node id — nothing else of the view.  Nodes
alike in those two are therefore ranked by id alone, which is what
:class:`PlacementIndex` relies on to offer ``choose_node`` one candidate
per (free slots, class set) bucket instead of every node.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError


class PlacementPolicy(enum.Enum):
    """How tenants are assigned to nodes."""

    FIRST_FIT = "first_fit"
    DEMAND_AWARE = "demand_aware"
    LEAST_FRAGMENTED = "least_fragmented"
    FRAG_AWARE = "frag_aware"
    CONSOLIDATE = "consolidate"

    @classmethod
    def parse(cls, value) -> "PlacementPolicy":
        """Coerce a policy name (CLI string) or enum member."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value))
        except ValueError:
            options = ", ".join(p.value for p in cls)
            raise ConfigError(
                f"unknown placement policy {value!r}; options: {options}"
            ) from None


@dataclass(frozen=True)
class NodeView:
    """What a placement policy may see of one node: occupancy and the
    resident tenants' classes (True = memory-bound), never identities."""

    node_id: int
    capacity: int
    free_slots: int
    tenant_classes: Tuple[bool, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.tenant_classes

    def complements(self, job_is_memory_bound: bool) -> bool:
        """Would the arrival improve (or keep) the node's class mix?
        An empty node always complements."""
        if self.is_empty:
            return True
        return any(c != job_is_memory_bound for c in self.tenant_classes)

    def has_opposite(self, job_is_memory_bound: bool) -> bool:
        return any(c != job_is_memory_bound for c in self.tenant_classes)


def is_memory_bound(perf, app) -> bool:
    """Classify ``app`` from its first kernel at the even two-way split
    of ``perf``'s GPU (a :class:`~repro.gpu.performance.PerformanceModel`):
    the same Equation 1/2 demand/supply boundary UGPU's profiler uses."""
    config = perf.config
    throughput = perf.throughput(
        app.kernels[0], config.num_sms // 2, config.num_channels // 2
    )
    return throughput.demand_supply_ratio >= 1.0


def placement_key(policy: PlacementPolicy, view: NodeView,
                  job_is_memory_bound: bool) -> tuple:
    """The sort key (lower is better) ``policy`` assigns to ``view`` for
    this arrival.  Only called for nodes with a free slot.

    Every key reads only ``view.free_slots`` and the set of classes in
    ``view.tenant_classes``, and ends with ``view.node_id``; a new
    ordering must keep that contract, or :class:`PlacementIndex` would
    pick a different node than the full scan."""
    if policy is PlacementPolicy.FIRST_FIT:
        return (view.node_id,)
    if policy is PlacementPolicy.DEMAND_AWARE:
        # Opposite-class resident first (reallocation room), then a fresh
        # node, then the fullest compatible one.
        rank = (0 if view.has_opposite(job_is_memory_bound)
                else 1 if view.is_empty else 2)
        return (rank, view.free_slots, view.node_id)
    if policy is PlacementPolicy.LEAST_FRAGMENTED:
        # Best-fit with the class-mix tie-break (the historical admit()).
        return (view.free_slots,
                0 if view.complements(job_is_memory_bound) else 1,
                view.node_id)
    if policy is PlacementPolicy.FRAG_AWARE:
        # Class-blind best-fit that keeps whole nodes free (Ting et al.).
        return (1 if view.is_empty else 0, view.free_slots, view.node_id)
    # CONSOLIDATE: pack active nodes first; among active nodes prefer a
    # complementary class mix, then best-fit (Saraha et al.).
    return (1 if view.is_empty else 0,
            0 if view.has_opposite(job_is_memory_bound) else 1,
            view.free_slots, view.node_id)


def choose_node(policy: PlacementPolicy, views: Sequence[NodeView],
                job_is_memory_bound: bool) -> Optional[NodeView]:
    """The node this arrival should land on, or None when no node has a
    free slot.  Deterministic: every ordering ends with the node id."""
    candidates = [v for v in views if v.free_slots > 0]
    if not candidates:
        return None
    return min(
        candidates,
        key=lambda v: placement_key(policy, v, job_is_memory_bound),
    )


class PlacementIndex:
    """Every node with a free slot, bucketed by what a placement key reads.

    A bucket key is ``(free_slots, holds a memory-bound tenant, holds a
    compute-bound tenant)`` and each bucket keeps its node ids sorted.
    By the :func:`placement_key` contract the lowest id of a bucket beats
    the rest of it under every policy, so ``choose_node(policy,
    index.heads(), c)`` picks the node the scan over all views would, at
    a cost of one view per bucket (at most ``3 * (capacity - 1) + 1``)
    whatever the node count.  The owner calls :meth:`update` whenever a
    node's residents change.
    """

    def __init__(self, capacity: int, node_ids: Sequence[int] = ()) -> None:
        self.capacity = capacity
        #: Free slots summed over the indexed nodes that hold a tenant.
        self.active_free_slots = 0
        self._buckets: Dict[Tuple[int, bool, bool], List[int]] = {}
        self._classes: Dict[int, Tuple[bool, ...]] = {}
        for node_id in node_ids:
            self.update(node_id, ())

    def _key(self, tenant_classes: Tuple[bool, ...]) -> Tuple[int, bool, bool]:
        return (self.capacity - len(tenant_classes),
                True in tenant_classes, False in tenant_classes)

    def update(self, node_id: int, tenant_classes: Tuple[bool, ...]) -> None:
        """(Re-)index ``node_id`` holding tenants of these classes; a
        full node leaves the index until a slot frees up."""
        self.discard(node_id)
        if len(tenant_classes) >= self.capacity:
            return
        key = self._key(tenant_classes)
        bisect.insort(self._buckets.setdefault(key, []), node_id)
        self._classes[node_id] = tenant_classes
        if tenant_classes:
            self.active_free_slots += key[0]

    def discard(self, node_id: int) -> None:
        """Drop ``node_id`` from placement until the next :meth:`update`."""
        tenant_classes = self._classes.pop(node_id, None)
        if tenant_classes is None:
            return
        key = self._key(tenant_classes)
        ids = self._buckets[key]
        del ids[bisect.bisect_left(ids, node_id)]
        if not ids:
            del self._buckets[key]
        if tenant_classes:
            self.active_free_slots -= key[0]

    def heads(self, active_only: bool = False) -> List[NodeView]:
        """The lowest-id node of every bucket (``active_only``: of every
        bucket whose nodes hold a tenant), as placement views."""
        return [
            NodeView(node_id=ids[0], capacity=self.capacity,
                     free_slots=free, tenant_classes=self._classes[ids[0]])
            for (free, memory, compute), ids in self._buckets.items()
            if not active_only or memory or compute
        ]
