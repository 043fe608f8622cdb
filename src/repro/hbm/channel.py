"""Memory channel and bank-group models with cross-bank timing.

A channel (one HBM die port) owns 4 bank groups of 4 banks, a command bus,
and an external data bus routed over its own TSV bundle.  The channel
enforces the constraints a single bank cannot see: tRRDl/tRRDs between
activates, the tFAW rolling window, tCCDl/tCCDs between column commands,
write-to-read turnaround, and data-bus occupancy.

PageMove's key structural property is visible here: READ/WRITE bursts
occupy the channel's external data bus, but MIGRATION transfers leave it
free — they move data over the bank group's internal bus to an *idle* TSV
bundle selected by the crossbar (Section 4.2), so normal traffic and
migration traffic only contend inside a bank group.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.errors import ProtocolError
from repro.hbm.bank import Bank
from repro.hbm.commands import Command, CommandKind
from repro.hbm.config import HBMConfig


class BankGroup:
    """A bank group: several banks sharing one internal data bus."""

    def __init__(self, config: HBMConfig, index: int) -> None:
        self.config = config
        self.index = index
        self.banks: List[Bank] = [
            Bank(config.timing, config.rows_per_bank)
            for _ in range(config.banks_per_group)
        ]
        #: Cycle until which the internal data bus is busy.
        self.bus_busy_until = 0
        #: Last cycle a column command issued in this group (for tCCDl).
        self.last_column_issue = -(10**9)

    def bank(self, index: int) -> Bank:
        if not 0 <= index < len(self.banks):
            raise ProtocolError(f"bank index {index} out of range")
        return self.banks[index]

    def bus_free_at(self) -> int:
        return self.bus_busy_until

    def occupy_bus(self, start: int, end: int) -> None:
        if start < self.bus_busy_until:
            raise ProtocolError(
                f"bank group {self.index} bus conflict: busy until "
                f"{self.bus_busy_until}, requested start {start}"
            )
        self.bus_busy_until = end


class Channel:
    """One HBM memory channel with full command-level timing.

    All times are memory-clock cycles.  The channel does not own a clock;
    callers pass the current cycle and use :meth:`earliest_issue` to find
    legal issue slots, which keeps the model usable both from the
    discrete-event engine and from closed-form schedulers.
    """

    def __init__(self, config: HBMConfig, index: int) -> None:
        config.validate()
        self.config = config
        self.index = index
        self.groups: List[BankGroup] = [
            BankGroup(config, g) for g in range(config.bank_groups_per_channel)
        ]
        t = config.timing
        self._timing = t
        #: Recent ACTIVATE issue times for the tFAW window.
        self._recent_activates: Deque[int] = deque(maxlen=4)
        #: Cycle until which the external (TSV) data bus is busy.
        self.data_bus_busy_until = 0
        #: Cycle until which the command bus is busy (MIGRATION takes 2).
        self.command_bus_busy_until = 0
        self._last_column_issue = -(10**9)
        self._last_column_group = -1
        self._last_write_data_end = -(10**9)
        self._last_write_group = -1
        # Statistics
        self.reads = 0
        self.writes = 0
        self.migrations = 0
        self.activates = 0
        self.precharges = 0
        self.idle_since: int = 0  #: set by idle-channel detection logic

    # ------------------------------------------------------------------
    # Scheduling queries
    # ------------------------------------------------------------------
    def earliest_issue(self, cmd: Command, now: int) -> int:
        """Earliest cycle >= ``now`` at which ``cmd`` could legally issue."""
        if not 0 <= cmd.bank_group < len(self.groups):
            raise ProtocolError(
                f"bank group {cmd.bank_group} out of range [0, {len(self.groups)})"
            )
        group = self.groups[cmd.bank_group]
        bank = group.bank(cmd.bank)
        t = self._timing
        earliest = max(now, self.command_bus_busy_until)

        if cmd.kind is CommandKind.ACTIVATE:
            earliest = max(earliest, bank.earliest_activate())
            earliest = max(earliest, self._rrd_constraint(cmd.bank_group))
            earliest = max(earliest, self._faw_constraint())
        elif cmd.kind is CommandKind.PRECHARGE:
            earliest = max(earliest, bank.earliest_precharge())
        elif cmd.is_column_command:
            earliest = max(earliest, bank.earliest_column())
            earliest = max(earliest, self._ccd_constraint(cmd.bank_group))
            if cmd.kind is CommandKind.READ:
                earliest = max(earliest, self._wtr_constraint(cmd.bank_group))
            if cmd.kind in (CommandKind.READ, CommandKind.WRITE):
                # External data bus must be free for the burst.
                earliest = max(earliest, self._data_bus_slot(earliest, cmd.kind))
            else:  # MIGRATION: needs the bank group's internal bus only.
                earliest = max(earliest, group.bus_free_at())
        return earliest

    def _rrd_constraint(self, bank_group: int) -> int:
        # Per-bank ACT-to-ACT (tRC) is folded into bank.earliest_activate;
        # this covers channel-wide ACT-to-ACT spacing.
        if not self._recent_activates:
            return 0
        t = self._timing
        last = self._recent_activates[-1]
        gap = t.tRRDl if bank_group == self._last_activate_group else t.tRRDs
        return last + gap

    def _faw_constraint(self) -> int:
        if len(self._recent_activates) == 4:
            return self._recent_activates[0] + self._timing.tFAW
        return 0

    def _ccd_constraint(self, bank_group: int) -> int:
        t = self._timing
        if self._last_column_issue < 0:
            return 0
        gap = t.tCCDl if bank_group == self._last_column_group else t.tCCDs
        return self._last_column_issue + gap

    def _wtr_constraint(self, bank_group: int) -> int:
        t = self._timing
        if self._last_write_data_end < 0:
            return 0
        gap = t.tWTRl if bank_group == self._last_write_group else t.tWTRs
        return self._last_write_data_end + gap

    def _data_bus_slot(self, issue: int, kind: CommandKind) -> int:
        t = self._timing
        lead = t.tCL if kind is CommandKind.READ else t.tWL
        # The burst begins `lead` cycles after issue; the bus must be free.
        if issue + lead >= self.data_bus_busy_until:
            return issue
        return self.data_bus_busy_until - lead

    # ------------------------------------------------------------------
    # Command issue
    # ------------------------------------------------------------------
    def issue(self, cmd: Command, now: int) -> int:
        """Issue ``cmd`` at cycle ``now``; return its completion cycle.

        ``now`` must be at least :meth:`earliest_issue`; otherwise a
        :class:`ProtocolError` is raised.  Completion means: row stable
        (ACTIVATE, at now+tRCD), bank precharged (PRECHARGE, at now+tRP),
        or data burst finished (column commands).
        """
        legal = self.earliest_issue(cmd, now)
        if now < legal:
            raise ProtocolError(
                f"{cmd} issued at {now}, earliest legal cycle is {legal}"
            )
        group = self.groups[cmd.bank_group]
        bank = group.bank(cmd.bank)
        t = self._timing
        self.command_bus_busy_until = now + cmd.command_bus_cycles

        if cmd.kind is CommandKind.ACTIVATE:
            bank.do_activate(now, cmd.row)
            self._recent_activates.append(now)
            self._last_activate_group = cmd.bank_group
            self.activates += 1
            return now + t.tRCD

        if cmd.kind is CommandKind.PRECHARGE:
            bank.do_precharge(now)
            self.precharges += 1
            return now + t.tRP

        if cmd.kind is CommandKind.READ:
            done = bank.do_read(now, cmd.column)
            self._note_column(cmd.bank_group, now)
            self.data_bus_busy_until = done
            group.occupy_bus(max(now + t.tCL, group.bus_free_at()), done)
            self.reads += 1
            return done

        if cmd.kind is CommandKind.WRITE:
            done = bank.do_write(now, cmd.column)
            self._note_column(cmd.bank_group, now)
            self.data_bus_busy_until = done
            group.occupy_bus(max(now + t.tWL, group.bus_free_at()), done)
            self._last_write_data_end = done
            self._last_write_group = cmd.bank_group
            self.writes += 1
            return done

        if cmd.kind is CommandKind.MIGRATION:
            done = bank.do_migration_read(now, cmd.column)
            self._note_column(cmd.bank_group, now)
            group.occupy_bus(max(now, group.bus_free_at()), done)
            self.migrations += 1
            return done

        raise ProtocolError(f"unknown command kind {cmd.kind}")  # pragma: no cover

    def _note_column(self, bank_group: int, now: int) -> None:
        self._last_column_issue = now
        self._last_column_group = bank_group
        for b in self.groups[bank_group].banks:
            b.note_column_issued(now, self._timing.tCCDl)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    _last_activate_group: int = -1

    def open_row(self, bank_group: int, bank: int) -> Optional[int]:
        return self.groups[bank_group].bank(bank).open_row

    def is_idle_at(self, now: int, window: int = 100) -> bool:
        """Idle-channel detection (Section 4.2): the channel is considered
        idle when its data bus has been quiet for ``window`` cycles."""
        return now - self.data_bus_busy_until >= window

    def stats(self) -> dict:
        """Return a snapshot of per-channel command counts."""
        return {
            "reads": self.reads,
            "writes": self.writes,
            "migrations": self.migrations,
            "activates": self.activates,
            "precharges": self.precharges,
        }
