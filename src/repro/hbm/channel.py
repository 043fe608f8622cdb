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
migration traffic only contend inside a bank group: a READ or WRITE burst
may not start while a MIGRATION holds its bank group's internal bus, and a
MIGRATION waits for the group's last burst to end.

Every constraint has the form "issue no earlier than C", where C depends
only on commands already applied, so :meth:`Channel.ready_cycle` computes
C once per command and callers issue at ``max(now, C)``.  Each command
costs one straight-line computation of C, a comparison per constraint
over the bank's and the channel's fields, and one state update,
:meth:`Channel.apply`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.errors import ProtocolError
from repro.hbm.bank import Bank
from repro.hbm.commands import COMMAND_BUS_CYCLES, Command, CommandKind
from repro.hbm.config import HBMConfig

_ACTIVATE = CommandKind.ACTIVATE
_PRECHARGE = CommandKind.PRECHARGE
_READ = CommandKind.READ
_WRITE = CommandKind.WRITE
_MIGRATION = CommandKind.MIGRATION

#: Command-bus clocks per kind, read once from their one definition.
_ACTIVATE_BUS = COMMAND_BUS_CYCLES[_ACTIVATE]
_PRECHARGE_BUS = COMMAND_BUS_CYCLES[_PRECHARGE]
_READ_BUS = COMMAND_BUS_CYCLES[_READ]
_WRITE_BUS = COMMAND_BUS_CYCLES[_WRITE]
_MIGRATION_BUS = COMMAND_BUS_CYCLES[_MIGRATION]

#: Issue cycle of a command that never happened: far enough back that no
#: spacing measured from it binds.
_NEVER = -(10**9)


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
    callers pass the current cycle.  :meth:`ready_cycle` gives the cycle
    from which a command is legal, :meth:`issue_earliest` issues by
    coordinates at the first legal cycle, and :meth:`apply` is the one
    method that changes channel state.  :meth:`earliest_issue` and
    :meth:`issue` offer the same on :class:`Command` objects.
    """

    def __init__(self, config: HBMConfig, index: int) -> None:
        config.validate()
        self.config = config
        self.index = index
        self.groups: List[BankGroup] = [
            BankGroup(config, g) for g in range(config.bank_groups_per_channel)
        ]
        self._timing = config.timing
        #: Issue times of the last four ACTIVATEs, oldest first: the
        #: tFAW window and, at the end, the tRRD reference.  Starts full
        #: of commands that never happened, so neither needs a length test.
        self._recent_activates: Deque[int] = deque([_NEVER] * 4, maxlen=4)
        self._last_activate_group = -1
        #: Cycle until which the external (TSV) data bus is busy.
        self.data_bus_busy_until = 0
        #: Cycle until which the command bus is busy (MIGRATION takes 2).
        self.command_bus_busy_until = 0
        self._last_column_issue = _NEVER
        self._last_column_group = -1
        self._last_write_data_end = _NEVER
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
    def ready_cycle(self, kind: CommandKind, bank_group: int, bank: int) -> int:
        """The cycle C from which a ``kind`` command to (``bank_group``,
        ``bank``) may legally issue; the earliest legal cycle at or after
        ``now`` is ``max(now, C)``.

        One pass over the bank's and the channel's fields, each
        constraint a comparison against the running C.  Raises
        :class:`ProtocolError` for coordinates outside the channel.
        Protocol state (is the right row open?) is checked on issue.
        """
        groups = self.groups
        if not 0 <= bank_group < len(groups):
            raise ProtocolError(
                f"bank group {bank_group} out of range [0, {len(groups)})"
            )
        group = groups[bank_group]
        banks = group.banks
        if not 0 <= bank < len(banks):
            raise ProtocolError(f"bank index {bank} out of range")
        target = banks[bank]
        t = self._timing
        ready = self.command_bus_busy_until
        if kind is _ACTIVATE:
            # Per-bank ACT-to-ACT (tRC) is in the bank's next_activate;
            # tRRD and tFAW space ACTIVATEs across the channel.
            c = target.next_activate
            if c > ready:
                ready = c
            recent = self._recent_activates
            c = recent[-1] + (t.tRRDl if bank_group == self._last_activate_group
                              else t.tRRDs)
            if c > ready:
                ready = c
            c = recent[0] + t.tFAW
            return c if c > ready else ready
        if kind is _PRECHARGE:
            c = target.next_precharge
            return c if c > ready else ready
        # Column commands: the bank's tRCD and its group's tCCDl live in
        # next_column; tCCDl/tCCDs from the channel's last column command.
        c = target.next_column
        if c > ready:
            ready = c
        c = self._last_column_issue + (
            t.tCCDl if bank_group == self._last_column_group else t.tCCDs)
        if c > ready:
            ready = c
        if kind is _MIGRATION:
            # Needs the bank group's internal bus, not the external one.
            c = group.bus_busy_until
            return c if c > ready else ready
        # The burst starts `lead` cycles after issue and needs both the
        # external data bus and the bank group's internal bus.
        lead = t.tCL if kind is _READ else t.tWL
        c = self.data_bus_busy_until - lead
        if c > ready:
            ready = c
        c = group.bus_busy_until - lead
        if c > ready:
            ready = c
        if kind is _READ:
            c = self._last_write_data_end + (
                t.tWTRl if bank_group == self._last_write_group else t.tWTRs)
            if c > ready:
                ready = c
        return ready

    def earliest_issue(self, cmd: Command, now: int) -> int:
        """Earliest cycle >= ``now`` at which ``cmd`` could legally issue."""
        return max(now, self.ready_cycle(cmd.kind, cmd.bank_group, cmd.bank))

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
        legal = self.ready_cycle(cmd.kind, cmd.bank_group, cmd.bank)
        if now < legal:
            raise ProtocolError(
                f"{cmd} issued at {now}, earliest legal cycle is {legal}"
            )
        return self.apply(cmd.kind, cmd.bank_group, cmd.bank, cmd.row,
                          cmd.column, now)

    def issue_earliest(self, kind: CommandKind, bank_group: int, bank: int,
                       row: Optional[int], column: Optional[int],
                       not_before: int) -> Tuple[int, int]:
        """Issue a command at the first legal cycle >= ``not_before``;
        return ``(issue cycle, completion cycle)``.

        ``row`` is the row to open (ACTIVATE) or the row a column command
        expects open (None skips that check); ``column`` addresses READ,
        WRITE and MIGRATION.
        """
        at = self.ready_cycle(kind, bank_group, bank)
        if at < not_before:
            at = not_before
        return at, self.apply(kind, bank_group, bank, row, column, at)

    def apply(self, kind: CommandKind, bank_group: int, bank: int,
              row: Optional[int], column: Optional[int], at: int,
              dest: bool = False) -> int:
        """Apply a command issued at cycle ``at``; return its completion
        cycle.  The one method that changes channel state.

        The caller has checked ``at`` against :meth:`ready_cycle`; the
        banks still check their own timing and protocol state, and
        nothing changes before the bank accepts.  ``dest`` marks the
        destination half of a MIGRATION, which writes the copied column
        into the open row.
        """
        group = self.groups[bank_group]
        target = group.banks[bank]
        t = self._timing
        if kind is _ACTIVATE:
            target.do_activate(at, row)
            self._recent_activates.append(at)
            self._last_activate_group = bank_group
            self.activates += 1
            self.command_bus_busy_until = at + _ACTIVATE_BUS
            return at + t.tRCD
        if kind is _PRECHARGE:
            target.do_precharge(at)
            self.precharges += 1
            self.command_bus_busy_until = at + _PRECHARGE_BUS
            return at + t.tRP
        if kind is _READ:
            done = target.do_read(at, column, row)
            group.occupy_bus(at + t.tCL, done)
            self.data_bus_busy_until = done
            self.reads += 1
            self.command_bus_busy_until = at + _READ_BUS
        elif kind is _WRITE:
            done = target.do_write(at, column, row)
            group.occupy_bus(at + t.tWL, done)
            self.data_bus_busy_until = done
            self._last_write_data_end = done
            self._last_write_group = bank_group
            self.writes += 1
            self.command_bus_busy_until = at + _WRITE_BUS
        elif kind is _MIGRATION:
            if dest:
                done = target.do_migration_write(at, column, row)
            else:
                done = target.do_migration_read(at, column, row)
            group.occupy_bus(at, done)
            self.migrations += 1
            self.command_bus_busy_until = at + _MIGRATION_BUS
        else:  # pragma: no cover
            raise ProtocolError(f"unknown command kind {kind}")
        # A column command: tCCDl for every bank of its group, tCCDl/tCCDs
        # for the channel's next one.
        self._last_column_issue = at
        self._last_column_group = bank_group
        ccd = at + t.tCCDl
        for other in group.banks:
            if ccd > other.next_column:
                other.next_column = ccd
        return done

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
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
