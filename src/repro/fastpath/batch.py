"""Vectorized batched roofline evaluation (the numpy kernel backend).

:func:`compute_batch` evaluates :meth:`PerformanceModel.throughput` for a
whole batch of ``(kernel, sms, channels)`` slices in one pass over
preallocated arrays.  It is **bit-identical** to the scalar oracle: every
float it stores in a :class:`SliceThroughput` must equal, bitwise, what
the scalar code would have produced (the golden regression and the
Hypothesis property test in ``tests/test_fastpath.py`` enforce this).

Two operations are deliberately left in the python fill loop because
their vectorized counterparts round differently from CPython:

* ``kernel.hit_rate_at(...)`` — the hit-rate curve uses ``**`` with a
  float exponent, and ``np.power`` is not bit-identical to python pow;
* ``(sms * channels) ** mlp_draw_exponent`` — same reason.

Everything else (elementwise ``+ - * /``, ``np.minimum``/``np.maximum``,
masked division) is exact for float64 and is written in the *same
association order* as the scalar expressions, which is what makes the
byte-identity hold.

The batch probes the model's throughput memo first and only evaluates
the missing slices, so in steady state (same kernels, unchanged
allocation) it degenerates to a handful of dict lookups.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.gpu.kernel import Kernel
from repro.gpu.performance import PerformanceModel, SliceThroughput

# Scratch arrays for the fill loop, grown geometrically and reused across
# calls ("preallocated" in the steady state; batches are tiny and
# single-threaded within a simulation step).
_SCRATCH: Dict[str, tuple] = {}
_N_FILL_ARRAYS = 6


def _scratch(n: int) -> tuple:
    arrays = _SCRATCH.get("arrays")
    if arrays is None or arrays[0].shape[0] < n:
        capacity = max(16, 1 << (n - 1).bit_length())
        arrays = tuple(np.empty(capacity) for _ in range(_N_FILL_ARRAYS))
        _SCRATCH["arrays"] = arrays
    return tuple(a[:n] for a in arrays)


def compute_batch(
    model: PerformanceModel,
    kernels: Sequence[Kernel],
    sms: Sequence[int],
    channels: Sequence[int],
) -> List[SliceThroughput]:
    """Batched :meth:`PerformanceModel.throughput`, memo-first."""
    if not (len(kernels) == len(sms) == len(channels)):
        raise ConfigError(
            f"batch inputs must have equal lengths, got "
            f"{len(kernels)}/{len(sms)}/{len(channels)}"
        )
    memo = model._throughput_memo
    out: List[SliceThroughput] = [None] * len(kernels)  # type: ignore[list-item]
    missing: List[int] = []
    for i in range(len(kernels)):
        key = (kernels[i], sms[i], channels[i])
        cached = memo.get(key)
        if cached is not None:
            model.memo_hits += 1
            memo.move_to_end(key)
            out[i] = cached
        else:
            if sms[i] < 0 or channels[i] < 0:
                raise ConfigError("slice sizes must be non-negative")
            model.memo_misses += 1
            missing.append(i)
    if not missing:
        return out

    (line, bytes_per_ch, llc_bw_ch, mem_bw_ch, latency_ratio,
     draw_coefficient, exponent) = model.config.roofline
    n = len(missing)
    ipc_sm, apk, hit, powsm, sms_f, chans_f = _scratch(n)
    for j, i in enumerate(missing):
        kernel = kernels[i]
        s, m = sms[i], channels[i]
        ipc_sm[j] = kernel.ipc_per_sm
        apk[j] = kernel.apki_llc / 1000.0
        # Scalar-pow sites: python semantics, see module docstring.
        hit[j] = kernel.hit_rate_at(m * bytes_per_ch)
        powsm[j] = float(s * m) ** exponent
        sms_f[j] = float(s)
        chans_f[j] = float(m)

    line = float(line)
    compute_roof = sms_f * ipc_sm
    bpi = apk * line
    demand = (compute_roof * apk) * line

    per_channel = hit * llc_bw_ch + np.minimum((1.0 - hit) * llc_bw_ch,
                                               mem_bw_ch)
    supply = chans_f * per_channel
    supply[chans_f <= 0.0] = 0.0

    scale = 1.0 - (1.0 - latency_ratio) * np.minimum(
        np.maximum(hit, 0.0), 1.0)
    draw = (draw_coefficient * powsm) / np.maximum(scale, latency_ratio)

    positive_bpi = bpi > 0.0
    bandwidth_roof = np.full(n, np.inf)
    mlp_roof = np.full(n, np.inf)
    # Python float division overflows silently to inf; match it.
    with np.errstate(over="ignore", divide="ignore"):
        np.divide(supply, bpi, out=bandwidth_roof, where=positive_bpi)
        np.divide(draw, bpi, out=mlp_roof, where=positive_bpi)

    ipc = np.minimum(np.minimum(compute_roof, bandwidth_roof), mlp_roof)
    dead = (sms_f == 0.0) | ((chans_f == 0.0) & positive_bpi)
    ipc[dead] = 0.0
    dram = (ipc * bpi) * (1.0 - hit)

    for j, i in enumerate(missing):
        result = SliceThroughput(
            float(ipc[j]), float(compute_roof[j]), float(bandwidth_roof[j]),
            float(mlp_roof[j]), float(demand[j]), float(supply[j]),
            float(dram[j]), float(hit[j]),
        )
        model._memo_store((kernels[i], sms[i], channels[i]), result)
        out[i] = result
    return out
