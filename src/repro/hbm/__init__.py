"""Command-level HBM model.

Implements the memory substrate the paper evaluates on (Table 1): 4 HBM
stacks, 8 channels per stack, 4 bank groups per channel, 4 banks per group,
with the published HBM timing parameters, an FR-FCFS per-channel memory
controller, and the PageMove hardware additions — the 4x8 bank-group-to-TSV
crossbar, the tri-state buffer decoder, and the two-cycle ``MIGRATION``
command (Section 4).

The command-level model is used directly by microbenchmarks and by the
migration cost calibration; the epoch-level system simulation uses the
analytic :class:`~repro.pagemove.cost.MigrationCostModel` derived from it.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.hbm.config": ("HBMConfig", "HBMTiming"),
    "repro.hbm.commands": (
        "Command", "CommandKind", "activate", "precharge", "read", "write",
        "migration",
    ),
    "repro.hbm.bank": ("Bank", "BankState"),
    "repro.hbm.channel": ("BankGroup", "Channel"),
    "repro.hbm.crossbar": ("BankGroupCrossbar", "TriStateDecoder"),
    "repro.hbm.stack": ("HBMStack", "TSVBundle"),
    "repro.hbm.controller": (
        "MemoryController", "MemoryRequest", "RequestKind",
    ),
    "repro.hbm.system": ("HBMSystem",),
}

__all__, __getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
