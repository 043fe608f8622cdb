"""Run provenance: who produced this series, from what tree, on what box.

Exported metric files outlive the working tree that produced them; six
months later nobody remembers which commit a ``series.csv`` came from.
:func:`collect_provenance` captures the attribution snapshot once per
process — git SHA (plus a ``-dirty`` suffix when the tree has local
edits), package version, Python version, platform — and
:func:`config_hash` folds an arbitrary run configuration into a stable
SHA-256 via the canonical :func:`~repro.exec.keys.fingerprint`.
Everything is failure-tolerant: outside a git checkout the SHA is simply
``"unknown"``.
"""

from __future__ import annotations

import hashlib
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from repro import __version__
from repro.exec.keys import fingerprint

_GIT_CACHE: Dict[str, str] = {}


def _git_describe() -> str:
    """``<sha12>`` or ``<sha12>-dirty``; ``"unknown"`` outside a checkout."""
    cached = _GIT_CACHE.get("sha")
    if cached is not None:
        return cached
    sha = "unknown"
    try:
        repo_dir = str(Path(__file__).resolve().parent)
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_dir, capture_output=True, text=True, timeout=5,
        )
        if head.returncode == 0:
            sha = head.stdout.strip()[:12]
            status = subprocess.run(
                ["git", "status", "--porcelain"],
                cwd=repo_dir, capture_output=True, text=True, timeout=5,
            )
            if status.returncode == 0 and status.stdout.strip():
                sha += "-dirty"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    _GIT_CACHE["sha"] = sha
    return sha


def config_hash(config: Any = None, **extra: Any) -> str:
    """A 16-hex-digit digest of a run configuration.

    Built on :func:`repro.exec.keys.fingerprint`, so two processes that
    run the same configuration report the same hash.  Unfingerprintable
    values degrade to ``repr`` rather than failing a run over its own
    attribution.
    """
    parts = []
    for label, value in (("config", config), *sorted(extra.items())):
        try:
            parts.append(f"{label}={fingerprint(value)}")
        except Exception:
            parts.append(f"{label}={value!r}")
    digest = hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()
    return digest[:16]


def collect_provenance(config: Any = None,
                       **extra: Any) -> Dict[str, str]:
    """The attribution mapping attached to every telemetry export.

    Keys: ``git_sha``, ``repro_version``, ``python_version``,
    ``platform``, ``config_hash`` — plus any extra keyword pairs the
    caller wants stamped in (policy name, mix, seed).
    """
    info = {
        "git_sha": _git_describe(),
        "repro_version": __version__,
        "python_version": platform.python_version(),
        "platform": sys.platform,
        "config_hash": config_hash(config),
    }
    for key, value in extra.items():
        info[str(key)] = str(value)
    return info


def stamp(registry, config: Any = None, **extra: Any) -> None:
    """Attach provenance to ``registry``."""
    registry.provenance.update(collect_provenance(config, **extra))
