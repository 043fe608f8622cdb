"""Policy sweeps over workload lists, with paper-style summaries.

Sweeps execute through :mod:`repro.exec`: pass ``jobs=N`` to fan the
(policy × mix) simulations out over a process pool.  Policies may be
given as registry names (``"bp"``, ``"ugpu"``, ...), as the registered
factories themselves (e.g. :func:`repro.exec.registry.bp`), or as
arbitrary callables — the latter fall back to in-process serial
execution since they cannot cross a process boundary.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.report import Table
from repro.core.system import SystemResult
from repro.errors import ConfigError
from repro.exec import (
    ExecStats,
    SweepExecutor,
    SweepJob,
    policy_name_of,
    resolve_policy,
)
from repro.workloads.mixes import build_mix

PolicySpec = Union[str, Callable]


@dataclass
class SweepSummary:
    """Aggregate statistics of one policy over a workload list."""

    policy: str
    stp_values: List[float]
    antt_values: List[float]
    min_np_values: List[float]

    @property
    def mean_stp(self) -> float:
        return statistics.fmean(self.stp_values)

    @property
    def mean_antt(self) -> float:
        return statistics.fmean(self.antt_values)

    @property
    def worst_min_np(self) -> float:
        return min(self.min_np_values)

    def _check_comparable(self, baseline: "SweepSummary") -> None:
        if len(baseline.stp_values) != len(self.stp_values):
            raise ConfigError(
                f"sweeps cover different workload lists: {self.policy!r} has "
                f"{len(self.stp_values)} results but baseline "
                f"{baseline.policy!r} has {len(baseline.stp_values)}"
            )

    def stp_gain_over(self, baseline: "SweepSummary") -> float:
        """Mean per-workload STP gain over a baseline sweep."""
        self._check_comparable(baseline)
        return statistics.fmean(
            mine / theirs - 1.0
            for mine, theirs in zip(self.stp_values, baseline.stp_values)
        )

    def antt_gain_over(self, baseline: "SweepSummary") -> float:
        self._check_comparable(baseline)
        return statistics.fmean(
            theirs / mine - 1.0
            for mine, theirs in zip(self.antt_values, baseline.antt_values)
        )


def _registry_name(factory: PolicySpec) -> Optional[str]:
    """The registry name for a policy spec, or None for ad-hoc callables."""
    if isinstance(factory, str):
        resolve_policy(factory)  # raise early on unknown names
        return factory
    return policy_name_of(factory)


class PolicySweep:
    """Run one policy across many workload mixes.

    ``factory`` is a registry name, a registered factory, or any callable
    receiving a fresh application list per mix and returning a system
    with a ``run(total_cycles, mix_name=...)`` method.  Registry-known
    policies execute through :class:`~repro.exec.executor.SweepExecutor`
    (honouring ``jobs``); ad-hoc callables run serially
    in-process.
    """

    def __init__(
        self,
        name: str,
        factory: PolicySpec,
        total_cycles: int = 25_000_000,
        factory_kwargs: Optional[Mapping[str, Any]] = None,
        jobs: int = 1,
    ):
        if total_cycles <= 0:
            raise ConfigError("total_cycles must be positive")
        self.name = name
        self.factory = factory
        self.total_cycles = total_cycles
        self.factory_kwargs = dict(factory_kwargs or {})
        self.executor = SweepExecutor(jobs=jobs)
        self.results: List[SystemResult] = []

    @property
    def stats(self) -> ExecStats:
        """Executor statistics accumulated over this sweep's runs."""
        return self.executor.stats

    def run(self, workloads: Sequence[Sequence[str]]) -> SweepSummary:
        """Evaluate every mix; returns the summary (results kept too)."""
        registry_name = _registry_name(self.factory)
        if registry_name is None:
            self.results = [
                self.factory(
                    build_mix(list(abbrs)).applications, **self.factory_kwargs
                ).run(self.total_cycles, mix_name="_".join(abbrs))
                for abbrs in workloads
            ]
        else:
            sweep_jobs = [
                SweepJob.build(
                    registry_name, abbrs, self.total_cycles, self.factory_kwargs
                )
                for abbrs in workloads
            ]
            self.results = self.executor.run(sweep_jobs)
        return self.summary()

    def summary(self) -> SweepSummary:
        if not self.results:
            raise ConfigError("sweep has not been run")
        return SweepSummary(
            policy=self.name,
            stp_values=[r.stp for r in self.results],
            antt_values=[r.antt for r in self.results],
            min_np_values=[r.min_np for r in self.results],
        )


def compare_policies(
    policies: Dict[str, PolicySpec],
    workloads: Sequence[Sequence[str]],
    baseline: str = "BP",
    total_cycles: int = 25_000_000,
    jobs: int = 1,
    executor: Optional[SweepExecutor] = None,
) -> Tuple[Table, Dict[str, SweepSummary]]:
    """Sweep several policies and build the comparison table.

    All registry-known policies are submitted as one job batch so a
    multi-policy comparison saturates the pool; ad-hoc callables run
    serially.  Pass an ``executor`` to observe :class:`ExecStats`
    afterwards (``executor.stats``); otherwise one is built from
    ``jobs``.  Returns the rendered-ready :class:`Table` plus
    the raw summaries.
    """
    if baseline not in policies:
        raise ConfigError(f"baseline {baseline!r} not among the policies")
    if executor is None:
        executor = SweepExecutor(jobs=jobs)

    names = {display: _registry_name(spec) for display, spec in policies.items()}
    batched = [display for display, name in names.items() if name is not None]
    batch_jobs = [
        SweepJob.build(names[display], abbrs, total_cycles)
        for display in batched
        for abbrs in workloads
    ]
    batch_results = executor.run(batch_jobs)

    per_policy: Dict[str, List[SystemResult]] = {}
    for offset, display in enumerate(batched):
        chunk = batch_results[offset * len(workloads):(offset + 1) * len(workloads)]
        per_policy[display] = list(chunk)

    summaries: Dict[str, SweepSummary] = {}
    for display, spec in policies.items():
        if display in per_policy:
            sweep = PolicySweep(display, spec, total_cycles)
            sweep.results = per_policy[display]
            summaries[display] = sweep.summary()
        else:
            sweep = PolicySweep(display, spec, total_cycles)
            summaries[display] = sweep.run(workloads)

    base = summaries[baseline]
    table = Table(
        title=f"{len(workloads)} workloads, {total_cycles:,} cycles",
        header=("policy", "mean STP", "mean ANTT", "worst min-NP",
                f"STP vs {baseline}", f"ANTT vs {baseline}"),
    )
    for name, summary in summaries.items():
        table.add(
            name,
            f"{summary.mean_stp:.3f}",
            f"{summary.mean_antt:.2f}",
            f"{summary.worst_min_np:.2f}",
            f"{summary.stp_gain_over(base):+.1%}",
            f"{summary.antt_gain_over(base):+.1%}",
        )
    return table, summaries
