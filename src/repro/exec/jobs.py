"""Picklable sweep-job specs and their content-addressed fingerprints.

A :class:`SweepJob` is the unit of work of the sweep executor: one policy
evaluated on one workload mix for one horizon.  It carries only plain data
(policy *name*, benchmark abbreviations, cycles, keyword arguments), so it
crosses process boundaries freely; the policy factory is resolved from
:mod:`repro.exec.registry` inside the worker.

``SweepJob.key()`` is a stable SHA-256 fingerprint of the full spec plus
the package version — the content address under which
:class:`~repro.exec.cache.ResultCache` memoizes the simulation's
:class:`~repro.core.system.SystemResult`.  Fingerprints must not depend on
object identity or dict ordering, so
:func:`~repro.exec.keys.fingerprint` canonicalizes dataclasses, enums,
mappings and plain objects recursively and refuses reprs that embed
memory addresses.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Tuple

from repro import __version__
from repro.errors import ConfigError
from repro.exec.keys import fingerprint
from repro.exec.registry import canonical_policy_name, resolve_policy
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

    def spec(self) -> str:
        """The canonical text the cache key hashes (version-qualified)."""
        kw = ",".join(f"{name}={fingerprint(val)}" for name, val in self.kwargs)
        return (
            f"repro=={__version__};policy={canonical_policy_name(self.policy)};"
            f"mix={self.mix_name};cycles={self.total_cycles};kwargs=({kw})"
        )

    def key(self) -> str:
        """Content address: stable SHA-256 hex digest of :meth:`spec`."""
        return hashlib.sha256(self.spec().encode("utf-8")).hexdigest()

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
