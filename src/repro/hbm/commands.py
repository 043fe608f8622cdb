"""DRAM command set, including PageMove's ``MIGRATION`` command.

The standard command set (ACTIVATE, PRECHARGE, READ, WRITE) follows the
HBM protocol.  ``MIGRATION`` is the new two-cycle command introduced in
Section 4.3 of the paper: cycle one carries the idle-TSV index and
source/destination bank indices; cycle two carries the source/destination
row and column indices.  One MIGRATION copies one 128-byte column (a cache
line) from the activated row of the source bank to the activated row of the
destination bank in another channel of the same stack, over an idle TSV
bundle selected by the 4x8 crossbar.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class CommandKind(enum.Enum):
    """The DRAM commands the model understands."""

    ACTIVATE = "ACT"
    PRECHARGE = "PRE"
    READ = "RD"
    WRITE = "WR"
    MIGRATION = "MIG"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Command-bus clocks each command occupies.  MIGRATION is the paper's
#: two-cycle command (Section 4.3): cycle one carries the TSV and bank
#: indices, cycle two the row and column indices.
COMMAND_BUS_CYCLES = {
    kind: 2 if kind is CommandKind.MIGRATION else 1 for kind in CommandKind
}


@dataclass(frozen=True)
class Command:
    """A single DRAM command addressed to one bank (or a bank pair for
    MIGRATION).

    Attributes
    ----------
    kind:
        The command opcode.
    bank_group, bank:
        Target bank coordinates within the channel.
    row, column:
        Row for ACTIVATE; column for READ/WRITE.  For MIGRATION these are
        the *source* coordinates.
    dest_channel, dest_bank_group, dest_bank, dest_row, dest_column:
        MIGRATION-only destination coordinates (another channel within the
        same HBM stack).
    tsv_index:
        MIGRATION-only: which idle TSV bundle carries the copied column.
    """

    kind: CommandKind
    bank_group: int
    bank: int
    row: Optional[int] = None
    column: Optional[int] = None
    dest_channel: Optional[int] = None
    dest_bank_group: Optional[int] = None
    dest_bank: Optional[int] = None
    dest_row: Optional[int] = None
    dest_column: Optional[int] = None
    tsv_index: Optional[int] = None

    @property
    def command_bus_cycles(self) -> int:
        """Command-bus occupancy (see :data:`COMMAND_BUS_CYCLES`)."""
        return COMMAND_BUS_CYCLES[self.kind]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = f"{self.kind} bg{self.bank_group} b{self.bank}"
        if self.kind is CommandKind.ACTIVATE:
            return f"{base} r{self.row}"
        if self.kind in (CommandKind.READ, CommandKind.WRITE):
            return f"{base} c{self.column}"
        if self.kind is CommandKind.MIGRATION:
            return (
                f"{base} r{self.row} c{self.column} -> ch{self.dest_channel} "
                f"bg{self.dest_bank_group} b{self.dest_bank} r{self.dest_row} "
                f"c{self.dest_column} tsv{self.tsv_index}"
            )
        return base


def activate(bank_group: int, bank: int, row: int) -> Command:
    """Build an ACTIVATE command opening ``row`` in the addressed bank."""
    return Command(CommandKind.ACTIVATE, bank_group, bank, row=row)


def precharge(bank_group: int, bank: int) -> Command:
    """Build a PRECHARGE command closing the open row of the bank."""
    return Command(CommandKind.PRECHARGE, bank_group, bank)


def read(bank_group: int, bank: int, column: int) -> Command:
    """Build a READ of one column (cache line) from the open row."""
    return Command(CommandKind.READ, bank_group, bank, column=column)


def write(bank_group: int, bank: int, column: int) -> Command:
    """Build a WRITE of one column (cache line) into the open row."""
    return Command(CommandKind.WRITE, bank_group, bank, column=column)


def migration(
    bank_group: int,
    bank: int,
    row: int,
    column: int,
    dest_channel: int,
    dest_bank_group: int,
    dest_bank: int,
    dest_row: int,
    dest_column: int,
    tsv_index: int,
) -> Command:
    """Build a MIGRATION command copying one column across channels.

    Parameters mirror the four fields of the two-cycle command encoding:
    (1) idle TSV index, (2) source/dest bank index, (3) source/dest row
    index, (4) source/dest column index (paper Section 4.3).
    """
    return Command(
        CommandKind.MIGRATION,
        bank_group,
        bank,
        row=row,
        column=column,
        dest_channel=dest_channel,
        dest_bank_group=dest_bank_group,
        dest_bank=dest_bank,
        dest_row=dest_row,
        dest_column=dest_column,
        tsv_index=tsv_index,
    )
