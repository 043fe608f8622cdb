"""DRAM bank finite-state machine with timing enforcement.

Each bank tracks its open row and the earliest memory-clock cycle at which
each command class may legally be issued to it, derived from the
:class:`~repro.hbm.config.HBMTiming` parameters.  Cross-bank constraints
(tRRD, tFAW, tCCD, data-bus occupancy) are enforced one level up by
:class:`~repro.hbm.channel.Channel`.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.errors import ProtocolError
from repro.hbm.config import HBMTiming


class BankState(enum.Enum):
    """Row-buffer state of a bank."""

    IDLE = "idle"          #: precharged, no open row
    ACTIVE = "active"      #: a row is open in the row buffer


class Bank:
    """A single DRAM bank.

    The bank validates protocol legality (e.g. no column access without an
    open row) and answers "when is the earliest cycle this command could
    issue", letting the channel scheduler make FR-FCFS decisions.
    """

    def __init__(self, timing: HBMTiming, rows: int) -> None:
        self.timing = timing
        self.rows = rows
        self.state = BankState.IDLE
        self.open_row: Optional[int] = None
        # Earliest issue times per command class, in memory clocks.
        self._next_activate = 0
        self._next_precharge = 0
        self._next_column = 0
        # Statistics
        self.activations = 0
        self.row_hits = 0
        self.row_misses = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def earliest_activate(self) -> int:
        """Earliest cycle an ACTIVATE may issue (bank must be idle)."""
        return self._next_activate

    def earliest_precharge(self) -> int:
        return self._next_precharge

    def earliest_column(self) -> int:
        """Earliest cycle a READ/WRITE/MIGRATION may issue to the open row."""
        return self._next_column

    def is_row_open(self, row: int) -> bool:
        return self.state is BankState.ACTIVE and self.open_row == row

    # ------------------------------------------------------------------
    # Command application
    # ------------------------------------------------------------------
    def do_activate(self, now: int, row: int) -> None:
        """Open ``row``; legal only when the bank is precharged."""
        if self.state is not BankState.IDLE:
            raise ProtocolError(
                f"ACTIVATE to bank with open row {self.open_row} (state={self.state})"
            )
        if not 0 <= row < self.rows:
            raise ProtocolError(f"row {row} out of range [0, {self.rows})")
        if now < self._next_activate:
            raise ProtocolError(
                f"ACTIVATE at {now} before earliest legal cycle {self._next_activate}"
            )
        t = self.timing
        self.state = BankState.ACTIVE
        self.open_row = row
        self.activations += 1
        self._next_column = now + t.tRCD
        self._next_precharge = now + t.tRAS
        self._next_activate = now + t.tRC

    def do_precharge(self, now: int) -> None:
        """Close the open row (a precharge of an idle bank is a no-op that
        still respects tRP, matching real parts' PREA behaviour)."""
        if now < self._next_precharge:
            raise ProtocolError(
                f"PRECHARGE at {now} before earliest legal cycle {self._next_precharge}"
            )
        t = self.timing
        self.state = BankState.IDLE
        self.open_row = None
        self._next_activate = max(self._next_activate, now + t.tRP)

    def do_read(self, now: int, column: int, row: Optional[int] = None) -> int:
        """Issue a READ; returns the cycle the data burst completes."""
        self._check_column(now, row, column, "READ")
        t = self.timing
        self._next_precharge = max(self._next_precharge, now + t.tRTP)
        self.row_hits += 1
        return now + t.tCL + t.tBL

    def do_write(self, now: int, column: int, row: Optional[int] = None) -> int:
        """Issue a WRITE; returns the cycle the data burst completes."""
        self._check_column(now, row, column, "WRITE")
        t = self.timing
        data_end = now + t.tWL + t.tBL
        # Write recovery folds into the precharge constraint.
        self._next_precharge = max(self._next_precharge, data_end + t.tRP // 2)
        self.row_hits += 1
        return data_end

    def do_migration_read(self, now: int, column: int,
                          row: Optional[int] = None) -> int:
        """Source-side half of a MIGRATION: stream one column to the TSVs.

        Returns the cycle the column transfer completes (tMIG covers the
        full copy including the destination write, Section 4.5).
        """
        self._check_column(now, row, column, "MIGRATION(src)")
        return now + self.timing.tMIG

    def do_migration_write(self, now: int, column: int,
                           row: Optional[int] = None) -> int:
        """Destination-side half of a MIGRATION: absorb one column."""
        self._check_column(now, row, column, "MIGRATION(dst)")
        return now + self.timing.tMIG

    def check_access(self, row: Optional[int], column: int, what: str) -> None:
        """Raise :class:`ProtocolError` unless a column command named
        ``what`` may address ``column`` of the open row: the bank has a
        row open, it is ``row`` (when given), and ``column`` is
        non-negative.  Timing is not checked here."""
        if self.state is not BankState.ACTIVE:
            raise ProtocolError(f"{what} to bank with no open row")
        if row is not None and row != self.open_row:
            raise ProtocolError(
                f"{what} to row {row}, but the open row is {self.open_row}"
            )
        if column < 0:
            raise ProtocolError(f"{what} column must be non-negative, got {column}")

    def _check_column(self, now: int, row: Optional[int], column: int,
                      what: str) -> None:
        self.check_access(row, column, what)
        if now < self._next_column:
            raise ProtocolError(
                f"{what} at {now} before earliest legal cycle {self._next_column}"
            )

    def note_column_issued(self, now: int, tccd: int) -> None:
        """Record a column command so back-to-back issues respect tCCD."""
        self._next_column = max(self._next_column, now + tccd)
