"""Kernels, GPU configs, a bitwise record view and exact-count epochs
for the roofline, Equation 1-2 and profiler tests.

``CONFIGS`` holds the Table 1 machine and two variants built with
:func:`dataclasses.replace` that differ from it in every constant a
roofline or profile evaluation reads: LLC size, slices and line size,
channel count and bandwidth, clock, both latencies and both MLP draw
constants.  A test that builds one model per config then fails if a
constant cached from one config leaks into another's results.
"""

from dataclasses import replace

from hypothesis import strategies as st

from repro.gpu.config import GPUConfig
from repro.gpu.kernel import Kernel
from repro.gpu.llc import HitRateCurve
from repro.gpu.performance import SliceThroughput
from repro.hbm.config import HBMConfig

finite = dict(allow_nan=False, allow_infinity=False)

hit_curves = st.builds(
    HitRateCurve,
    reference_capacity=st.floats(min_value=1e6, max_value=1e8, **finite),
    reference_hit_rate=st.floats(min_value=0.0, max_value=0.8, **finite),
    working_set=st.floats(min_value=1e6, max_value=1e9, **finite),
    alpha=st.floats(min_value=0.1, max_value=2.0, **finite),
)

kernels = st.builds(
    Kernel,
    name=st.just("k"),
    ipc_per_sm=st.floats(min_value=0.05, max_value=4.0, **finite),
    apki_llc=st.floats(min_value=0.0, max_value=400.0, **finite),
    llc_hit_rate=st.floats(min_value=0.0, max_value=1.0, **finite),
    footprint_bytes=st.integers(min_value=0, max_value=1 << 33),
    instructions=st.integers(min_value=1, max_value=10**9),
    hit_curve=st.one_of(st.none(), hit_curves),
)

CONFIGS = (
    GPUConfig(),
    # A 4 MB LLC in 32 slices, slower DRAM relative to the LLC, and a
    # steeper MLP draw law.
    replace(
        GPUConfig(),
        llc_slices=32, llc_sets_per_slice=64, llc_size=32 * 16 * 64 * 128,
        llc_latency_cycles=100, dram_latency_cycles=520,
        mlp_draw_coefficient=41.3, mlp_draw_exponent=0.52,
    ),
    # Two HBM stacks (16 channels, 480 GB/s), 64 B lines, a 1.1 GHz
    # clock and a flatter draw law.
    replace(
        GPUConfig(),
        hbm=replace(HBMConfig(), num_stacks=2, total_bandwidth_gbps=480.0),
        sm_freq_ghz=1.1, llc_line_bytes=64, llc_size=64 * 16 * 48 * 64,
        llc_latency_cycles=150, dram_latency_cycles=380,
        mlp_draw_coefficient=28.0, mlp_draw_exponent=0.4,
    ),
)

configs = st.sampled_from(CONFIGS)

#: Every ``SliceThroughput`` field, in order.
SLICE_FIELDS = (
    "ipc", "compute_roof", "bandwidth_roof", "mlp_roof",
    "demand_bytes_per_cycle", "supply_bytes_per_cycle",
    "dram_bytes_per_cycle", "llc_hit_rate",
)


def hexed(record, names=SLICE_FIELDS) -> dict:
    """The named fields of ``record``, each float as its exact hex form
    (every ``SliceThroughput`` field by default)."""
    values = {name: getattr(record, name) for name in names}
    return {name: value.hex() if isinstance(value, float) else value
            for name, value in values.items()}


def counted_epoch(hit_rate=0.0, dram_per_cycle=0.0, accesses=True):
    """A throughput record whose epoch of ``n`` cycles on Table 1 (128 B
    lines) retires ``n`` instructions and makes ``n`` LLC accesses (none
    without ``accesses``), ``n * hit_rate`` of them hits, and ``n *
    dram_per_cycle`` DRAM bytes: one instruction per cycle, at an APKI
    the profiler recovers as exactly 1000."""
    return SliceThroughput(1.0, 1.0, 0.0, 0.0, 128.0 if accesses else 0.0,
                           0.0, dram_per_cycle, hit_rate)
