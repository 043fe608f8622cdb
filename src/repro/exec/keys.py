"""Canonical, process-independent fingerprints of run configurations.

:func:`fingerprint` is the canonical text behind every run correlation
ID (:func:`repro.telemetry.provenance.config_hash`), so two processes
that run the same configuration stamp the same ID.  It imports nothing
from the simulator, so a fleet run hashes its configuration without
loading the closed-system stack.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Mapping

from repro.errors import ConfigError


def fingerprint(value: Any) -> str:
    """A deterministic, process-independent token for ``value``.

    Handles the argument shapes sweeps actually pass (primitives,
    sequences, mappings, enums, dataclasses such as ``QoSTarget`` /
    ``GPUConfig``, and plain config objects such as ``EnergyModel`` whose
    ``__dict__`` holds the knobs).  Raises :class:`ConfigError` for values
    whose only description would embed a memory address, since those would
    give the same configuration a different ID in every process.
    """
    if value is None or isinstance(value, (bool, int, str, bytes)):
        return repr(value)
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, enum.Enum):
        return f"{type(value).__qualname__}.{value.name}"
    if isinstance(value, (list, tuple)):
        inner = ",".join(fingerprint(v) for v in value)
        return f"[{inner}]"
    if isinstance(value, (set, frozenset)):
        inner = ",".join(sorted(fingerprint(v) for v in value))
        return f"{{{inner}}}"
    if isinstance(value, Mapping):
        inner = ",".join(
            f"{fingerprint(k)}:{fingerprint(v)}"
            for k, v in sorted(value.items(), key=lambda kv: repr(kv[0]))
        )
        return f"{{{inner}}}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ",".join(
            f"{f.name}={fingerprint(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"{type(value).__qualname__}({fields})"
    state = getattr(value, "__dict__", None)
    if state is not None:
        fields = ",".join(
            f"{name}={fingerprint(val)}" for name, val in sorted(state.items())
        )
        return f"{type(value).__qualname__}({fields})"
    text = repr(value)
    if " at 0x" in text:
        raise ConfigError(
            f"cannot fingerprint {type(value).__qualname__}: repr embeds a "
            "memory address; give it a stable __dict__ or make it a dataclass"
        )
    return f"{type(value).__qualname__}:{text}"
