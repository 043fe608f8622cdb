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

from repro import _lazy_exports

_EXPORTS = {
    "repro.policies.base": (
        "PartitionPolicy", "EvenPartitionPolicy", "even_allocations",
    ),
    "repro.policies.bp": (
        "BPPolicy", "BPBigSmallPolicy", "BPSmallBigPolicy", "fixed_two_way",
    ),
    "repro.policies.mps": ("MPSPolicy",),
    "repro.policies.cd_search": ("CDSearchPolicy",),
    "repro.policies.ugpu": ("UGPUPolicy",),
}

__all__, __getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
