"""Shared text-file IO with transparent gzip support.

Fleet-scale observability artifacts (trace JSONL, metric expositions,
epoch CSV series) grow linearly with nodes x rounds, and a
datacenter-sized run produces files that are painful to ship around
uncompressed.  Every writer and reader in :mod:`repro.trace` and
:mod:`repro.telemetry` funnels through
:func:`open_text`, which switches to :mod:`gzip` whenever the path ends
in ``.gz`` — so compression is purely a naming decision at the call
site (``--report-gzip`` names a bundle's ``trace.jsonl.gz``) and
round-trips are transparent: ``read_jsonl("trace.jsonl.gz")`` just
works.

Gzip streams are opened in text mode (``"rt"``/``"wt"``) with UTF-8, so
callers see the exact same file-object contract either way.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import IO, Union

PathLike = Union[str, Path]


def is_gzip_path(path: PathLike) -> bool:
    """True when ``path`` names a gzip stream (``.gz`` suffix)."""
    return str(path).endswith(".gz")


def open_text(path: PathLike, mode: str = "r", *,
              newline: str = None) -> IO[str]:
    """Open ``path`` for text IO, gzip-compressed when it ends in ``.gz``.

    ``mode`` is ``"r"``, ``"w"`` or ``"a"`` — the text-ness and UTF-8
    encoding are applied here so call sites stay one-argument simple.
    ``newline`` passes through for CSV writers that need ``""``.
    """
    if mode not in ("r", "w", "a"):
        raise ValueError(f"open_text mode must be r/w/a, got {mode!r}")
    if is_gzip_path(path):
        # gzip.open's text mode accepts newline= the same way open does.
        return gzip.open(path, mode + "t", encoding="utf-8", newline=newline)
    return open(path, mode, encoding="utf-8", newline=newline)
