"""Stateful property-based testing of the fleet's placement index
(hypothesis RuleBasedStateMachine): the index must pick the node that
``choose_node`` picks over a view of every node, under every policy."""

from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cluster.placement import (
    NodeView,
    PlacementIndex,
    PlacementPolicy,
    choose_node,
    placement_key,
)
from tests.strategies import STATE_MACHINE_SETTINGS


def _node_id(view):
    return None if view is None else view.node_id


class PlacementIndexMachine(RuleBasedStateMachine):
    """Random admit / depart / migrate / discard-restore sequences.

    The model is each node's list of tenant classes (True = memory-bound)
    plus the set of discarded nodes; the oracle is the full scan over
    views built from it.  A discarded node is what the fleet's rebalance
    pass makes of a draining source: its tenants may still leave, but
    the index hears of it only when the node is restored.  Looping over
    :class:`PlacementPolicy` means a future ordering whose key reads more
    than (free slots, class set, node id) fails here.
    """

    @initialize(capacity=st.integers(min_value=1, max_value=6),
                nodes=st.integers(min_value=1, max_value=24))
    def build(self, capacity, nodes):
        self.capacity = capacity
        self.classes = [[] for _ in range(nodes)]
        self.discarded = set()
        self.index = PlacementIndex(capacity, range(nodes))

    def _sync(self, node_id):
        if node_id not in self.discarded:
            self.index.update(node_id, tuple(self.classes[node_id]))

    def _with_room(self):
        return [i for i, c in enumerate(self.classes) if len(c) < self.capacity]

    def _occupied(self):
        return [i for i, c in enumerate(self.classes) if c]

    def _sources(self):
        """Occupied nodes with room for a tenant somewhere else."""
        room = set(self._with_room())
        return [s for s in self._occupied() if room - {s}]

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    @precondition(lambda self: self._with_room())
    @rule(data=st.data(), memory_bound=st.booleans())
    def admit(self, data, memory_bound):
        node_id = data.draw(st.sampled_from(self._with_room()))
        self.classes[node_id].append(memory_bound)
        self._sync(node_id)

    @precondition(lambda self: self._occupied())
    @rule(data=st.data())
    def depart(self, data):
        node_id = data.draw(st.sampled_from(self._occupied()))
        tenants = self.classes[node_id]
        tenants.pop(data.draw(st.integers(0, len(tenants) - 1)))
        self._sync(node_id)

    @precondition(lambda self: self._sources())
    @rule(data=st.data())
    def migrate(self, data):
        source = data.draw(st.sampled_from(self._sources()))
        target = data.draw(st.sampled_from(
            [t for t in self._with_room() if t != source]))
        tenants = self.classes[source]
        self.classes[target].append(
            tenants.pop(data.draw(st.integers(0, len(tenants) - 1))))
        self._sync(source)
        self._sync(target)

    @rule(data=st.data())
    def discard(self, data):
        node_id = data.draw(st.integers(0, len(self.classes) - 1))
        self.index.discard(node_id)
        self.discarded.add(node_id)

    @precondition(lambda self: self.discarded)
    @rule(data=st.data())
    def restore(self, data):
        node_id = data.draw(st.sampled_from(sorted(self.discarded)))
        self.discarded.remove(node_id)
        self._sync(node_id)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def _views(self):
        return [
            NodeView(node_id=i, capacity=self.capacity,
                     free_slots=self.capacity - len(c),
                     tenant_classes=tuple(c))
            for i, c in enumerate(self.classes) if i not in self.discarded
        ]

    @invariant()
    def index_picks_what_the_scan_picks(self):
        views = self._views()
        # The rebalance filter: active nodes, the draining source excluded.
        active = [v for v in views if not v.is_empty]
        heads = self.index.heads()
        active_heads = self.index.heads(active_only=True)
        for policy in PlacementPolicy:
            for memory_bound in (False, True):
                assert (_node_id(choose_node(policy, heads, memory_bound))
                        == _node_id(choose_node(policy, views, memory_bound))), (
                    f"{policy.value}, memory_bound={memory_bound}")
                assert (_node_id(choose_node(policy, active_heads, memory_bound))
                        == _node_id(choose_node(policy, active, memory_bound))), (
                    f"{policy.value} (active only), memory_bound={memory_bound}")

    @invariant()
    def keys_read_only_the_bucket_then_the_id(self):
        """The contract the index rests on, checked on every open node:
        a key is its bucket's value followed by the node id."""
        for policy in PlacementPolicy:
            for memory_bound in (False, True):
                by_bucket = {}
                for view in self._views():
                    if not view.free_slots:
                        continue
                    key = placement_key(policy, view, memory_bound)
                    assert key[-1] == view.node_id, policy.value
                    bucket = (view.free_slots, frozenset(view.tenant_classes))
                    assert by_bucket.setdefault(bucket, key[:-1]) == key[:-1], (
                        f"{policy.value}: nodes alike in {bucket} keyed apart")

    @invariant()
    def one_view_per_bucket(self):
        assert len(self.index.heads()) <= 3 * (self.capacity - 1) + 1

    @invariant()
    def active_free_slots_match_the_scan(self):
        assert self.index.active_free_slots == sum(
            v.free_slots for v in self._views() if not v.is_empty)


PlacementIndexMachine.TestCase.settings = STATE_MACHINE_SETTINGS
TestPlacementIndexStateMachine = PlacementIndexMachine.TestCase
