"""Epoch profiler: the online counter pipeline of Section 3.3.

Each tracked application has four hardware counters, all saturating (a
count that would pass a counter's maximum stays at the maximum):

* the SMs' existing instruction counter, 48 bits wide
  (:data:`INSTRUCTION_COUNTER_MAX`);
* the three 16-bit counters the paper adds, for LLC accesses, LLC hits
  and DRAM bytes (:data:`NARROW_COUNTER_MAX`).  An epoch's events would
  overflow 16 bits, so each narrow counter ticks once per
  :data:`EVENTS_PER_TICK` events and carries the remainder into the next
  epoch.

A policy counts an epoch's events with :meth:`EpochProfiler.observe`
when it sees that epoch's throughput, and at the boundary
:meth:`EpochProfiler.profile` reads and resets the counters and turns the
read into an :class:`AppProfile` carrying exactly the quantities
Equations 1-2 need: APKI and LLC hit rate.  The DRAM-byte counter reaches
no profile field; its value only keys the profile memo.  Profiling is off
the execution critical path, so it adds no latency to the epoch itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, NamedTuple, Optional

from repro.errors import ConfigError
from repro.gpu.config import DEFAULT_GPU_CONFIG, GPUConfig
from repro.gpu.performance import SliceThroughput

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gpu.kernel import Application

#: The 48-bit instruction counter's maximum.
INSTRUCTION_COUNTER_MAX = (1 << 48) - 1
#: The 16-bit LLC-access, LLC-hit and DRAM-byte counters' maximum.
NARROW_COUNTER_MAX = (1 << 16) - 1
#: Events per tick of a narrow counter.
EVENTS_PER_TICK = 1024


class AppProfile(NamedTuple):
    """What the hardware learned about one application this epoch.

    ``bw_demand_per_sm`` is Equation 1 (bytes per cycle one stall-free SM
    would consume); ``bw_supply_per_mc`` is Equation 2 (bytes per cycle
    one memory channel plus its LLC slices can supply to this app).  An
    immutable tuple that compares and hashes by value.
    """

    app_id: int
    ipc_max_per_sm: float
    apki_llc: float
    llc_hit_rate: float
    bw_demand_per_sm: float
    bw_supply_per_mc: float
    footprint_bytes: int = 0

    def demand(self, sms: int) -> float:
        """Total bandwidth demand of a slice with ``sms`` SMs."""
        return self.bw_demand_per_sm * sms

    def supply(self, channels: int) -> float:
        """Total bandwidth supply of ``channels`` memory channels."""
        return self.bw_supply_per_mc * channels

    def demand_supply_ratio(self, sms: int, channels: int) -> float:
        """> 1 means the allocation leaves the app memory-bound."""
        supply = self.supply(channels)
        if supply <= 0:
            return float("inf") if self.demand(sms) > 0 else 0.0
        return self.demand(sms) / supply


class _TrackedApp:
    """One tracked application: its fixed parameters, its four counters
    (the narrow ones in ticks), the narrow counters' carried remainders,
    the last observed epoch's event counts and the profile memo."""

    __slots__ = (
        "ipc_max", "footprint",
        "instructions", "accesses", "hits", "dram_bytes",
        "access_rest", "hit_rest", "byte_rest",
        "last_epoch", "profiles",
    )

    def __init__(self, ipc_max: float, footprint: int) -> None:
        self.ipc_max = ipc_max
        self.footprint = footprint
        self.instructions = self.accesses = self.hits = self.dram_bytes = 0
        self.access_rest = self.hit_rest = self.byte_rest = 0
        #: ``(throughput, cycles, instructions, accesses, hits, dram)``.
        self.last_epoch: Optional[tuple] = None
        self.profiles: Dict[tuple, AppProfile] = {}


class EpochProfiler:
    """Per-application hardware counters plus the Equation 1-2 math."""

    #: Per-app :meth:`profile` memo bound; a steady-state app cycles
    #: through a handful of counter reads, so far fewer entries live.
    PROFILE_MEMO_CAPACITY = 512

    def __init__(self, config: Optional[GPUConfig] = None) -> None:
        config = config if config is not None else DEFAULT_GPU_CONFIG
        config.validate()
        self.config = config
        self._apps: Dict[int, _TrackedApp] = {}

    def track(self, app_id: int, ipc_max_per_sm: float,
              footprint_bytes: int = 0) -> None:
        """Start profiling an application, with cleared counters.

        ``ipc_max_per_sm`` comes from the SM's existing issue-slot
        counters (the stall-free issue rate).
        """
        if ipc_max_per_sm <= 0:
            raise ConfigError("ipc_max_per_sm must be positive")
        self._apps[app_id] = _TrackedApp(ipc_max_per_sm, footprint_bytes)

    def track_application(self, app_id: int, app: "Application") -> None:
        """Start profiling ``app`` unless it is tracked already: its
        stall-free issue rate is its fastest kernel's."""
        if app_id not in self._apps:
            self.track(app_id, max(k.ipc_per_sm for k in app.kernels),
                       app.footprint_bytes)

    def observe(self, app_id: int, throughput: SliceThroughput,
                cycles: float) -> None:
        """Count the events of ``cycles`` cycles run at ``throughput``.

        In hardware the counters increment per event; here the epoch
        model computes the aggregate event counts the throughput implies.
        Consecutive epochs of the same kernel on the same slice repeat
        them, so the last epoch's counts are memoized on the throughput
        record's identity (it is frozen and shared through the
        performance-model memo) and ``cycles``.
        """
        app = self._apps.get(app_id)
        if app is None:
            raise ConfigError(f"app {app_id} is not tracked")
        last = app.last_epoch
        if last is not None and last[0] is throughput and last[1] == cycles:
            _, _, instructions, accesses, hits, dram = last
        else:
            if cycles < 0:
                raise ConfigError("cycles must be non-negative")
            instructions = int(throughput.ipc * cycles)
            # Recover the kernel's APKI from the throughput record:
            # Equation 1 demand = sms * ipc_max * APKI/1000 * line and
            # compute_roof = sms * ipc_max, so demand/compute_roof =
            # APKI/1000 * line.
            apki = (
                throughput.demand_bytes_per_cycle
                / max(1e-12, throughput.compute_roof)
                / self.config.llc_line_bytes
                * 1000.0
            )
            accesses = int(instructions * apki / 1000.0)
            hits = int(accesses * throughput.llc_hit_rate)
            dram = int(throughput.dram_bytes_per_cycle * cycles)
            app.last_epoch = (
                throughput, cycles, instructions, accesses, hits, dram)
        # Saturating increments as comparisons: a builtin min() call is
        # about 6x slower (155 ns against 27 ns on Python 3.11), some
        # 10 ms over the 76,512 increments of a seed-0 paper pass.
        count = app.instructions + instructions
        app.instructions = (count if count < INSTRUCTION_COUNTER_MAX
                            else INSTRUCTION_COUNTER_MAX)
        ticks, app.access_rest = divmod(app.access_rest + accesses,
                                        EVENTS_PER_TICK)
        count = app.accesses + ticks
        app.accesses = count if count < NARROW_COUNTER_MAX else NARROW_COUNTER_MAX
        ticks, app.hit_rest = divmod(app.hit_rest + hits, EVENTS_PER_TICK)
        count = app.hits + ticks
        app.hits = count if count < NARROW_COUNTER_MAX else NARROW_COUNTER_MAX
        ticks, app.byte_rest = divmod(app.byte_rest + dram, EVENTS_PER_TICK)
        count = app.dram_bytes + ticks
        app.dram_bytes = (count if count < NARROW_COUNTER_MAX
                          else NARROW_COUNTER_MAX)

    def profile(self, app_id: int) -> AppProfile:
        """Epoch-boundary read: read and reset the counters and derive
        the Equation 1-2 quantities.

        The profile is a pure function of the four counter values and the
        app's fixed parameters, so it is memoized on the counter values.
        Repeated reads return the *same* ``AppProfile`` object (it is
        frozen), which also lets policies detect steady-state boundaries
        by identity.
        """
        app = self._apps.get(app_id)
        if app is None:
            raise ConfigError(f"app {app_id} is not tracked")
        key = (app.instructions, app.accesses, app.hits, app.dram_bytes)
        app.instructions = app.accesses = app.hits = app.dram_bytes = 0
        memo = app.profiles
        profile = memo.get(key)
        if profile is None:
            instructions = key[0]
            accesses = key[1] * EVENTS_PER_TICK
            hits = key[2] * EVENTS_PER_TICK
            profile = self.build_profile(
                app_id,
                app.ipc_max,
                accesses * 1000.0 / instructions if instructions else 0.0,
                hits / accesses if accesses else 0.0,
                app.footprint,
            )
            if len(memo) >= self.PROFILE_MEMO_CAPACITY:
                memo.clear()
            memo[key] = profile
        return profile

    # ------------------------------------------------------------------
    # Equation 1 and 2
    # ------------------------------------------------------------------
    def bw_demand_per_sm(self, ipc_max_per_sm: float, apki_llc: float) -> float:
        """Equation 1, in bytes per GPU cycle per SM."""
        return ipc_max_per_sm * (apki_llc / 1000.0) * self.config.llc_line_bytes

    def bw_supply_per_mc(self, llc_hit_rate: float) -> float:
        """Equation 2, in bytes per GPU cycle per channel."""
        return self.config.roofline.supply_per_channel(llc_hit_rate)

    def build_profile(self, app_id: int, ipc_max_per_sm: float,
                      apki_llc: float, llc_hit_rate: float,
                      footprint_bytes: int = 0) -> AppProfile:
        """The profile of an app with this stall-free issue rate, APKI
        and hit rate: Equations 1-2 on them.  Counter reads and static
        profiles (a kernel's known parameters) are both built here."""
        return AppProfile(
            app_id,
            ipc_max_per_sm,
            apki_llc,
            llc_hit_rate,
            self.bw_demand_per_sm(ipc_max_per_sm, apki_llc),
            self.bw_supply_per_mc(llc_hit_rate),
            footprint_bytes,
        )
