"""Parametric GPU energy model (Figure 12b substitution).

The paper uses GPUWattch with an HBM power model; it reports only
aggregates: the core occupies 88.3% and the HBM 11.6% of system energy on
average for the heterogeneous workloads (up to 30.3% HBM for
memory-heavy mixes); migration raises memory energy by 38% on average,
but UGPU's speedup cuts static/constant energy for a net 7.1% saving.

We model energy per epoch as::

    E_core = P_core_static * T + e_instr * instructions
    E_mem  = P_mem_static * T + e_byte * (demand_bytes + migrated_bytes)

with constants calibrated so a BP run of the average heterogeneous mix
lands on the paper's 88.3/11.6 split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from repro.errors import ConfigError
from repro.gpu.config import DEFAULT_GPU_CONFIG, GPUConfig


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy of one run, in joules."""

    core_static: float
    core_dynamic: float
    mem_static: float
    mem_dynamic: float
    migration: float

    @property
    def core(self) -> float:
        return self.core_static + self.core_dynamic

    @property
    def memory(self) -> float:
        return self.mem_static + self.mem_dynamic + self.migration

    @property
    def total(self) -> float:
        return self.core + self.memory

    @property
    def memory_fraction(self) -> float:
        if self.total == 0:
            return 0.0
        return self.memory / self.total


def _require_non_negative(*inputs: float) -> None:
    if min(inputs) < 0:
        raise ConfigError("energy inputs must be non-negative")


class EnergyModel:
    """Joule accounting for core and HBM.

    Default constants approximate a 300 W-class 22 nm GPU: ~95 W of core
    static power, ~9 pJ per thread instruction, ~18 W of HBM background
    power and ~14 pJ/B of DRAM access energy (HBM2-era figures), tuned so
    the Figure 12b aggregate splits emerge for the evaluated mixes.
    """

    def __init__(
        self,
        config: Optional[GPUConfig] = None,
        core_static_watts: float = 95.0,
        core_pj_per_instruction: float = 9.0,
        mem_static_watts: float = 18.0,
        mem_pj_per_byte: float = 14.0,
        migration_pj_per_byte: float = 9.0,
    ) -> None:
        config = config if config is not None else DEFAULT_GPU_CONFIG
        config.validate()
        for name, value in (
            ("core_static_watts", core_static_watts),
            ("core_pj_per_instruction", core_pj_per_instruction),
            ("mem_static_watts", mem_static_watts),
            ("mem_pj_per_byte", mem_pj_per_byte),
            ("migration_pj_per_byte", migration_pj_per_byte),
        ):
            if value < 0:
                raise ConfigError(f"{name} must be non-negative")
        self.config = config
        self.core_static_watts = core_static_watts
        self.core_pj_per_instruction = core_pj_per_instruction
        self.mem_static_watts = mem_static_watts
        self.mem_pj_per_byte = mem_pj_per_byte
        self.migration_pj_per_byte = migration_pj_per_byte

    def energy(
        self,
        cycles: float,
        instructions: float,
        dram_bytes: float,
        migrated_bytes: float = 0.0,
    ) -> EnergyBreakdown:
        """Energy of a run of ``cycles`` GPU cycles.

        ``migrated_bytes`` covers PageMove/software page-migration traffic;
        it is charged at the (cheaper) in-stack transfer energy plus the
        standard DRAM access energy on both the read and write side.
        """
        _require_non_negative(cycles, instructions, dram_bytes, migrated_bytes)
        seconds = cycles / self.config.sm_freq_hz
        pj = 1e-12
        migration = migrated_bytes * (
            2 * self.mem_pj_per_byte + self.migration_pj_per_byte
        ) * pj
        return EnergyBreakdown(
            core_static=self.core_static_watts * seconds,
            core_dynamic=instructions * self.core_pj_per_instruction * pj,
            mem_static=self.mem_static_watts * seconds,
            mem_dynamic=dram_bytes * self.mem_pj_per_byte * pj,
            migration=migration,
        )


class EnergyLedger:
    """Core and memory energy summed over many runs of one model.

    :meth:`add` folds each run into four running sums with the float
    operations of :meth:`EnergyModel.energy`, in the same order, so the
    sums equal adding each run's :class:`EnergyBreakdown` to the bit; it
    builds no breakdown per run (the fleet folds one run per node per
    round).
    """

    def __init__(self, model: EnergyModel) -> None:
        self.model = model
        self.core_static = self.core_dynamic = 0.0
        self.mem_static = self.mem_dynamic = 0.0

    def add(self, cycles: float,
            runs: Iterable[Tuple[float, float]]) -> None:
        """Fold runs of ``cycles`` GPU cycles each, given as
        ``(instructions, dram_bytes)`` pairs, in order."""
        model = self.model
        pj = 1e-12
        seconds = cycles / model.config.sm_freq_hz
        core_static = model.core_static_watts * seconds
        mem_static = model.mem_static_watts * seconds
        for instructions, dram_bytes in runs:
            _require_non_negative(cycles, instructions, dram_bytes)
            self.core_static += core_static
            self.core_dynamic += (
                instructions * model.core_pj_per_instruction * pj)
            self.mem_static += mem_static
            self.mem_dynamic += dram_bytes * model.mem_pj_per_byte * pj

    def breakdown(self, migration: float) -> EnergyBreakdown:
        """The sums so far, with ``migration`` joules on top."""
        return EnergyBreakdown(
            core_static=self.core_static,
            core_dynamic=self.core_dynamic,
            mem_static=self.mem_static,
            mem_dynamic=self.mem_dynamic,
            migration=migration,
        )
