"""Analytic two-roofline performance model.

This is the substitution for cycle-level GPGPU-sim (see DESIGN.md): a
kernel's throughput on a slice of ``s`` SMs and ``m`` memory channels is
the minimum of

* a **compute roofline** — ``s * ipc_per_sm`` (SMs issue at their peak
  rate when memory never stalls them), and
* a **bandwidth roofline** — the LLC-level data bandwidth the slice's
  memory side can supply, divided by the kernel's bytes per instruction.

The bandwidth roofline follows the paper's Equation 2: the slice's LLC
slices (two per channel) serve hits; misses are bounded by the channels'
DRAM bandwidth.  The hard ``min`` reproduces the piecewise-linear scaling
of Figures 2 and 3 exactly: compute-bound kernels scale with SMs and are
flat in channels until the supply knee; memory-bound kernels scale with
channels and are flat in SMs until too few SMs remain to cover the
latency (the compute roofline drops below the bandwidth one).

What a memo miss costs: :meth:`PerformanceModel.throughput` reads the
config's :attr:`~repro.gpu.config.GPUConfig.roofline` constants
(computed once per config object), evaluates the kernel's hit-rate
curve once, and applies Equation 1
(:meth:`~PerformanceModel.demand_bytes_per_cycle`) and the constants'
Equation 2 and MLP draw law, so every field is bitwise what
:meth:`~PerformanceModel.supply_bytes_per_cycle` and
:meth:`~repro.gpu.config.GPUConfig.draw_bytes_per_cycle` give
(``tests/test_gpu_performance.py`` pins that against a reference
written out in the test); then it builds one :class:`SliceThroughput`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, NamedTuple, Optional, Sequence

from repro.errors import ConfigError
from repro.gpu.config import DEFAULT_GPU_CONFIG, GPUConfig
from repro.gpu.kernel import Kernel


class SliceThroughput(NamedTuple):
    """Throughput of one kernel on one GPU slice.

    An immutable tuple that compares and hashes by value; the hot paths
    build it positionally, in field order.

    Attributes
    ----------
    ipc:
        Achieved instructions per GPU cycle over the whole slice.
    compute_roof, bandwidth_roof, mlp_roof:
        The roofline values (instructions/cycle).
    demand_bytes_per_cycle:
        Equation 1's per-slice bandwidth demand at the ideal issue rate.
    supply_bytes_per_cycle:
        Equation 2's LLC-level bandwidth supply of the slice.
    dram_bytes_per_cycle:
        DRAM traffic actually generated at the achieved IPC.
    llc_hit_rate:
        Hit rate at the slice's LLC capacity.
    """

    ipc: float
    compute_roof: float
    bandwidth_roof: float
    mlp_roof: float
    demand_bytes_per_cycle: float
    supply_bytes_per_cycle: float
    dram_bytes_per_cycle: float
    llc_hit_rate: float

    @property
    def memory_bound(self) -> bool:
        """True when the memory-side supply binds (demand >= supply)."""
        return self.bandwidth_roof < min(self.compute_roof, self.mlp_roof)

    @property
    def demand_supply_ratio(self) -> float:
        """Degree of bandwidth demand (the sort key of the partitioning
        algorithm's part (a)); > 1 means memory-bound."""
        if self.supply_bytes_per_cycle <= 0:
            return float("inf") if self.demand_bytes_per_cycle > 0 else 0.0
        return self.demand_bytes_per_cycle / self.supply_bytes_per_cycle


class PerformanceModel:
    """Evaluate kernels on arbitrary (SMs, channels) slices."""

    #: Default LRU bound on the throughput memo: comfortably above
    #: (#kernels x #distinct slice shapes) for any single run, small
    #: enough that a long sweep over thousands of kernels cannot grow
    #: the memo without bound.
    DEFAULT_MEMO_CAPACITY = 65_536

    def __init__(self, config: Optional[GPUConfig] = None,
                 memo_capacity: int = DEFAULT_MEMO_CAPACITY) -> None:
        config = config if config is not None else DEFAULT_GPU_CONFIG
        config.validate()
        if memo_capacity < 1:
            raise ConfigError(
                f"memo_capacity must be >= 1, got {memo_capacity}")
        self.config = config
        # throughput() is pure in (kernel, sms, channels) for a fixed
        # config, and the epoch loop re-evaluates the same slice for
        # every epoch a kernel runs, so memoize.  Kernel is a frozen
        # (hashable) dataclass and SliceThroughput a tuple, so shared
        # results are safe.  Keyed by the kernel object itself — the dict
        # holds a reference, so ids cannot be recycled under us — and
        # LRU-bounded so arbitrarily long sweeps stay at fixed memory.
        self._throughput_memo: "OrderedDict" = OrderedDict()
        self._memo_capacity = memo_capacity
        self.memo_hits = 0
        self.memo_misses = 0

    # ------------------------------------------------------------------
    # Memo management
    # ------------------------------------------------------------------
    @property
    def memo_size(self) -> int:
        """Entries currently held by the throughput memo."""
        return len(self._throughput_memo)

    def clear_memo(self) -> None:
        """Drop every memoized throughput.

        Must be called whenever ``self.config`` is replaced (memoized
        results would otherwise reflect the old parameters; the roofline
        constants live on the frozen config object, so they follow the
        new one); the hit/miss counters survive so telemetry stays
        cumulative.
        """
        self._throughput_memo.clear()

    def _memo_store(self, key, result: SliceThroughput) -> SliceThroughput:
        memo = self._throughput_memo
        memo[key] = result
        if len(memo) > self._memo_capacity:
            memo.popitem(last=False)
        return result

    # ------------------------------------------------------------------
    # Equation 1: per-slice bandwidth demand
    # ------------------------------------------------------------------
    def demand_bytes_per_cycle(self, kernel: Kernel, num_sms: int) -> float:
        """``BW_SM * s``: LLC-level bytes per GPU cycle the slice's SMs
        would consume at their ideal stall-free issue rate."""
        line = self.config.llc_line_bytes
        return num_sms * kernel.ipc_per_sm * (kernel.apki_llc / 1000.0) * line

    # ------------------------------------------------------------------
    # Equation 2: per-slice bandwidth supply
    # ------------------------------------------------------------------
    def supply_bytes_per_cycle(self, kernel: Kernel, num_channels: int) -> float:
        """LLC-level bytes per GPU cycle ``num_channels`` channels (plus
        their co-located LLC slices) can supply to this kernel.

        The paper's Equation 2 per channel:
        ``H * B_LLC + min((1-H) * B_LLC, B_MEM)`` — hits stream at LLC
        bandwidth, misses at the smaller of the miss stream and the
        channel's DRAM bandwidth.
        """
        if num_channels <= 0:
            return 0.0
        roof = self.config.roofline
        hit = kernel.hit_rate_at(num_channels * roof.llc_bytes_per_channel)
        return num_channels * roof.supply_per_channel(hit)

    # ------------------------------------------------------------------
    # Throughput
    # ------------------------------------------------------------------
    def throughput(self, kernel: Kernel, num_sms: int, num_channels: int) -> SliceThroughput:
        """Kernel throughput on a slice of (num_sms, num_channels)."""
        key = (kernel, num_sms, num_channels)
        memo = self._throughput_memo
        cached = memo.get(key)
        if cached is not None:
            self.memo_hits += 1
            memo.move_to_end(key)
            return cached
        self.memo_misses += 1
        if num_sms < 0 or num_channels < 0:
            raise ConfigError("slice sizes must be non-negative")
        roof = self.config.roofline
        bytes_per_instr = (kernel.apki_llc / 1000.0) * roof.line_bytes
        hit = kernel.hit_rate_at(num_channels * roof.llc_bytes_per_channel)

        compute_roof = num_sms * kernel.ipc_per_sm
        # supply_bytes_per_cycle(), with the hit rate evaluated above.
        supply = num_channels * roof.supply_per_channel(hit) if num_channels else 0.0
        if bytes_per_instr > 0:
            bandwidth_roof = supply / bytes_per_instr
            # MLP ceiling: achieved bandwidth is bounded by the in-flight
            # capacity of the slice, which scales with the geometric mean
            # of source (SM MSHRs) and sink (channel queues) parallelism —
            # Figure 3b's decline below ~20 SMs.
            mlp_roof = roof.draw(num_sms, num_channels, hit) / bytes_per_instr
        else:
            bandwidth_roof = float("inf")
            mlp_roof = float("inf")

        ipc = min(compute_roof, bandwidth_roof, mlp_roof)
        if num_sms == 0 or (num_channels == 0 and bytes_per_instr > 0):
            ipc = 0.0
        return self._memo_store(key, SliceThroughput(
            ipc,
            compute_roof,
            bandwidth_roof,
            mlp_roof,
            self.demand_bytes_per_cycle(kernel, num_sms),
            supply,
            ipc * bytes_per_instr * (1.0 - hit),
            hit,
        ))

    def throughput_batch(self, kernels: Sequence[Kernel],
                         sms: Sequence[int],
                         channels: Sequence[int]) -> List[SliceThroughput]:
        """Vectorized :meth:`throughput` over a batch of slices.

        Bit-identical to calling :meth:`throughput` per element (the
        numpy kernel backend relies on this); requires numpy.
        """
        from repro.fastpath.batch import compute_batch

        return compute_batch(self, kernels, sms, channels)

    def alone_ipc(self, kernel: Kernel) -> float:
        """IPC with the whole GPU (the :math:`IPC^{alone}` of Equations
        3-4)."""
        return self.throughput(
            kernel, self.config.num_sms, self.config.num_channels
        ).ipc

    def normalized_progress(self, kernel: Kernel, num_sms: int,
                            num_channels: int) -> float:
        """Slice IPC normalized to the whole-GPU IPC (the paper's NP
        metric used for QoS targets)."""
        alone = self.alone_ipc(kernel)
        if alone <= 0:
            return 0.0
        return self.throughput(kernel, num_sms, num_channels).ipc / alone
