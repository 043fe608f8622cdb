"""Registry of named policy factories.

A :class:`~repro.exec.jobs.SweepJob` carries only a *policy name*; the
factory behind it is resolved from this registry on whichever side of a
process boundary the job lands.  Every factory is a module-level callable
``factory(applications, **kwargs) -> system`` so the registry contents are
identical in the parent and in ``ProcessPoolExecutor`` workers — nothing
unpicklable ever travels with a job.

Factories *compose*: each one builds a
:class:`~repro.core.system.MultitaskSystem` runner around the matching
:mod:`repro.policies` policy object, splitting the keyword arguments
between the two (runner keywords — ``config``, ``epoch_cycles``,
``arrivals``, ... — go to the runner; everything else to the policy).
Callers that want a factory object rather than a name (``PolicySweep``,
``GPUNode.run``) pass these module-level functions (:func:`bp`,
:func:`ugpu`, ...), which :func:`policy_name_of` maps back to their names.

Names are case-insensitive; the canonical spellings are the lowercase CLI
names (``bp``, ``ugpu-offline``, ...) with the benchmark-suite spellings
(``BP``, ``CD``, ``UGPU-offline``, ...) registered as aliases.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.core.system import MultitaskSystem
from repro.errors import ConfigError
from repro.pagemove import MigrationMode
from repro.policies import (
    BPBigSmallPolicy,
    BPPolicy,
    BPSmallBigPolicy,
    CDSearchPolicy,
    MPSPolicy,
    UGPUPolicy,
)

PolicyFactory = Callable[..., object]

_REGISTRY: Dict[str, PolicyFactory] = {}
_ALIASES: Dict[str, str] = {}

#: Keyword arguments owned by the runner; everything else a factory
#: receives is forwarded to the policy constructor.
RUNNER_KWARGS = frozenset(
    {
        "config",
        "epoch_cycles",
        "energy_model",
        "total_memory_bytes",
        "obs",
        "arrivals",
        "max_slots",
        "kernel_backend",
    }
)


def compose_system(policy_factory: Callable[..., object], applications,
                   **kwargs) -> MultitaskSystem:
    """Build a runner around ``policy_factory(**policy_kwargs)``.

    Splits ``kwargs`` between the runner (:data:`RUNNER_KWARGS`) and the
    policy constructor, so one factory signature serves both layers.
    """
    runner_kw = {}
    policy_kw = {}
    for key, value in kwargs.items():
        (runner_kw if key in RUNNER_KWARGS else policy_kw)[key] = value
    return MultitaskSystem(
        applications, policy=policy_factory(**policy_kw), **runner_kw
    )


def canonical_policy_name(name: str) -> str:
    """Map a name or alias to its canonical lowercase registry key."""
    key = name.strip().lower()
    return _ALIASES.get(key, key)


def register_policy(
    name: str,
    factory: PolicyFactory,
    aliases: Sequence[str] = (),
    replace: bool = False,
) -> PolicyFactory:
    """Register ``factory`` under ``name`` (plus optional aliases)."""
    key = name.strip().lower()
    if not key:
        raise ConfigError("policy name cannot be empty")
    if key in _REGISTRY and not replace:
        raise ConfigError(f"policy {name!r} already registered")
    _REGISTRY[key] = factory
    for alias in aliases:
        _ALIASES[alias.strip().lower()] = key
    return factory


def resolve_policy(name: str) -> PolicyFactory:
    """Look up a factory by (case-insensitive) name or alias."""
    key = canonical_policy_name(name)
    try:
        return _REGISTRY[key]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigError(f"unknown policy {name!r}; registered: {known}") from None


def policy_name_of(factory: PolicyFactory) -> Optional[str]:
    """Reverse lookup: the canonical name of a registered factory, or None.

    Lets the sweep layer accept the registered callables themselves
    (``compare_policies({"BP": bp, ...})``) and still hand the work to
    the process pool by name.  Ad-hoc callables (lambdas, closures) map
    to ``None`` and run in-process.
    """
    for key, registered in _REGISTRY.items():
        if registered is factory:
            return key
    return None


def registered_policies() -> List[str]:
    """Sorted canonical policy names."""
    return sorted(_REGISTRY)


def bp(apps, **kwargs):
    return compose_system(BPPolicy, apps, **kwargs)


def bp_big_small(apps, **kwargs):
    return compose_system(BPBigSmallPolicy, apps, **kwargs)


def bp_small_big(apps, **kwargs):
    return compose_system(BPSmallBigPolicy, apps, **kwargs)


def mps(apps, **kwargs):
    return compose_system(MPSPolicy, apps, **kwargs)


def cd_search(apps, **kwargs):
    return compose_system(CDSearchPolicy, apps, **kwargs)


def ugpu(apps, **kwargs):
    return compose_system(UGPUPolicy, apps, **kwargs)


def ugpu_offline(apps, **kwargs):
    return compose_system(UGPUPolicy, apps, offline=True, **kwargs)


def ugpu_software(apps, **kwargs):
    return compose_system(UGPUPolicy, apps, mode=MigrationMode.SOFTWARE, **kwargs)


def ugpu_traditional(apps, **kwargs):
    return compose_system(
        UGPUPolicy, apps, mode=MigrationMode.TRADITIONAL, **kwargs
    )


register_policy("bp", bp)
register_policy("bp-bs", bp_big_small)
register_policy("bp-sb", bp_small_big)
register_policy("mps", mps)
register_policy("cd-search", cd_search, aliases=("cd",))
register_policy("ugpu", ugpu)
register_policy("ugpu-offline", ugpu_offline)
register_policy("ugpu-soft", ugpu_software, aliases=("ugpu-software",))
register_policy("ugpu-ori", ugpu_traditional, aliases=("ugpu-traditional",))
