"""Kernel-backend registry for the vectorized epoch fast path.

The simulator has two interchangeable implementations of its hot loop:

* ``"scalar"`` — the original pure-python code in
  :mod:`repro.core.system`, :mod:`repro.gpu.performance` and friends.
  It is the golden oracle: every result the fast path produces must be
  byte-identical to it.
* ``"numpy"`` — the batched kernels in :mod:`repro.fastpath.batch`
  (vectorized roofline evaluation) and :mod:`repro.fastpath.epoch`
  (batched epoch advance), opt-in only.

This module deliberately does **not** import numpy; it only decides
which backend a run should use, so the scalar path keeps working on
boxes without numpy.  Resolution priority:

1. an explicit ``kernel_backend=...`` argument (config / CLI flag),
2. a process-wide override set via :func:`set_default_kernel_backend`,
3. the ``REPRO_KERNEL_BACKEND`` environment variable,
4. ``"scalar"``, even when numpy is importable.

The default is scalar because it is the faster backend end to end: a
closed epoch batches about two slices, too few to repay numpy's per-call
overhead, and the numpy import itself costs a process about 0.15 s on
a 2-vCPU VM.  A run on the default backend never imports numpy.
"""

from __future__ import annotations

import importlib.util
import os
from typing import Optional

from repro.errors import ConfigError

#: The recognised backend names, in oracle-first order.
KERNEL_BACKENDS = ("scalar", "numpy")

_DEFAULT_OVERRIDE: Optional[str] = None
_NUMPY_AVAILABLE: Optional[bool] = None


def numpy_available() -> bool:
    """True when numpy can be imported (checked once per process)."""
    global _NUMPY_AVAILABLE
    if _NUMPY_AVAILABLE is None:
        _NUMPY_AVAILABLE = importlib.util.find_spec("numpy") is not None
    return _NUMPY_AVAILABLE


def set_default_kernel_backend(name: Optional[str]) -> None:
    """Set (or with ``None`` clear) the process-wide backend override.

    Sits between the explicit argument and the environment variable in
    the resolution order; used by the CLI so one ``--kernel-backend``
    flag governs every system a command constructs.
    """
    if name is not None and name not in KERNEL_BACKENDS:
        raise ConfigError(
            f"unknown kernel backend {name!r}; choose from {KERNEL_BACKENDS}"
        )
    global _DEFAULT_OVERRIDE
    _DEFAULT_OVERRIDE = name


def resolve_kernel_backend(name: Optional[str] = None) -> str:
    """Resolve the backend a run should use (see module docstring)."""
    if name is None:
        name = _DEFAULT_OVERRIDE
    if name is None:
        name = os.environ.get("REPRO_KERNEL_BACKEND") or None
    if name is None:
        return "scalar"
    if name not in KERNEL_BACKENDS:
        raise ConfigError(
            f"unknown kernel backend {name!r}; choose from {KERNEL_BACKENDS}"
        )
    if name == "numpy" and not numpy_available():
        raise ConfigError(
            "kernel backend 'numpy' requested but numpy is not importable; "
            "install numpy or use kernel_backend='scalar'"
        )
    return name


__all__ = [
    "KERNEL_BACKENDS",
    "numpy_available",
    "resolve_kernel_backend",
    "set_default_kernel_backend",
]
