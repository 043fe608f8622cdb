"""Picklable sweep-job specs.

A :class:`SweepJob` is the unit of work of the sweep executor: one policy
evaluated on one workload mix for one horizon.  It carries only plain data
(policy *name*, benchmark abbreviations, cycles, keyword arguments), so it
crosses process boundaries freely; the policy factory is resolved from
:mod:`repro.exec.registry` inside the worker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Tuple

from repro.errors import ConfigError
from repro.exec.registry import resolve_policy
from repro.obs import OFF, Obs
from repro.workloads.mixes import build_mix

if TYPE_CHECKING:
    from repro.core.system import SystemResult


@dataclass(frozen=True)
class SweepJob:
    """One (policy, mix, horizon, kwargs) simulation, ready to ship."""

    policy: str
    mix: Tuple[str, ...]
    total_cycles: int = 25_000_000
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.policy:
            raise ConfigError("job needs a policy name")
        if not self.mix:
            raise ConfigError("job needs at least one benchmark")
        if self.total_cycles <= 0:
            raise ConfigError("total_cycles must be positive")
        # Normalize so kwarg order never changes the identity of a job.
        object.__setattr__(self, "mix", tuple(self.mix))
        object.__setattr__(
            self, "kwargs", tuple(sorted(tuple(self.kwargs), key=lambda kv: kv[0]))
        )

    @classmethod
    def build(
        cls,
        policy: str,
        mix,
        total_cycles: int = 25_000_000,
        kwargs: Optional[Mapping[str, Any]] = None,
    ) -> "SweepJob":
        """Convenience constructor taking kwargs as a mapping."""
        return cls(
            policy=policy,
            mix=tuple(mix),
            total_cycles=total_cycles,
            kwargs=tuple((kwargs or {}).items()),
        )

    @property
    def mix_name(self) -> str:
        return "_".join(self.mix)

    def kwargs_dict(self) -> Dict[str, Any]:
        return dict(self.kwargs)

    def run(self, obs: Obs = OFF) -> SystemResult:
        """Simulate this job to completion (in the calling process).

        ``obs`` observes the run (a worker's capture handle, see
        :func:`repro.obs.run_job`); an ``obs`` kwarg on the job itself
        wins — capture never overrides a spec.
        """
        factory = resolve_policy(self.policy)
        apps = build_mix(list(self.mix)).applications
        system = factory(apps, **{"obs": obs, **self.kwargs_dict()})
        return system.run(self.total_cycles, mix_name=self.mix_name)
