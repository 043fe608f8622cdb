"""Partition policies, decoupled from the epoch runner.

One :class:`~repro.core.system.MultitaskSystem` runner composes exactly
one :class:`PartitionPolicy`::

    from repro.core.system import MultitaskSystem
    from repro.policies import UGPUPolicy

    system = MultitaskSystem(mix.applications, policy=UGPUPolicy())
    result = system.run()

Policy state lives on the policy object: read it as
``system.policy.profiler``, ``system.policy.hysteresis`` and so on.
"""

from repro.policies.base import (
    EvenPartitionPolicy,
    PartitionPolicy,
    even_allocations,
)
from repro.policies.bp import (
    BPBigSmallPolicy,
    BPPolicy,
    BPSmallBigPolicy,
    fixed_two_way,
)
from repro.policies.cd_search import CDSearchPolicy
from repro.policies.mps import MPSPolicy
from repro.policies.ugpu import UGPUPolicy

__all__ = [
    "PartitionPolicy",
    "EvenPartitionPolicy",
    "even_allocations",
    "BPPolicy",
    "BPBigSmallPolicy",
    "BPSmallBigPolicy",
    "fixed_two_way",
    "MPSPolicy",
    "CDSearchPolicy",
    "UGPUPolicy",
]
