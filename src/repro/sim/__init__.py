"""Epoch-level simulation driver.

An epoch runner that advances co-executing applications in fixed-length
profiling epochs the way UGPU's hardware does (Section 3.3 of the paper).
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.sim.epoch": ("EpochResult", "EpochRunner"),
}

__all__, __getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
