"""Epoch-level simulation driver.

An epoch runner that advances co-executing applications in fixed-length
profiling epochs the way UGPU's hardware does (Section 3.3 of the paper).
"""

from repro.sim.epoch import EpochResult, EpochRunner

__all__ = [
    "EpochResult",
    "EpochRunner",
]
