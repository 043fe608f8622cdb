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
C once per command and callers issue at ``max(now, C)``.
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
        #: Recent ACTIVATE issue times for the tFAW window.
        self._recent_activates: Deque[int] = deque(maxlen=4)
        self._last_activate_group = -1
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
    def ready_cycle(self, kind: CommandKind, bank_group: int, bank: int) -> int:
        """The cycle C from which a ``kind`` command to (``bank_group``,
        ``bank``) may legally issue; the earliest legal cycle at or after
        ``now`` is ``max(now, C)``.

        Raises :class:`ProtocolError` for coordinates outside the channel.
        Protocol state (is the right row open?) is checked on issue.
        """
        groups = self.groups
        if not 0 <= bank_group < len(groups):
            raise ProtocolError(
                f"bank group {bank_group} out of range [0, {len(groups)})"
            )
        group = groups[bank_group]
        target = group.bank(bank)
        ready = self.command_bus_busy_until
        if kind is _ACTIVATE:
            return max(ready, target.earliest_activate(),
                       self._rrd_constraint(bank_group), self._faw_constraint())
        if kind is _PRECHARGE:
            return max(ready, target.earliest_precharge())
        ready = max(ready, target.earliest_column(),
                    self._ccd_constraint(bank_group))
        if kind is _MIGRATION:
            # Needs the bank group's internal bus, not the external one.
            return max(ready, group.bus_busy_until)
        t = self._timing
        # The burst starts `lead` cycles after issue and needs both the
        # external data bus and the bank group's internal bus.
        lead = t.tCL if kind is _READ else t.tWL
        ready = max(ready, self.data_bus_busy_until - lead,
                    group.bus_busy_until - lead)
        if kind is _READ:
            ready = max(ready, self._wtr_constraint(bank_group))
        return ready

    def earliest_issue(self, cmd: Command, now: int) -> int:
        """Earliest cycle >= ``now`` at which ``cmd`` could legally issue."""
        return max(now, self.ready_cycle(cmd.kind, cmd.bank_group, cmd.bank))

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
        gap = t.tCCDl if bank_group == self._last_column_group else t.tCCDs
        return self._last_column_issue + gap

    def _wtr_constraint(self, bank_group: int) -> int:
        t = self._timing
        gap = t.tWTRl if bank_group == self._last_write_group else t.tWTRs
        return self._last_write_data_end + gap

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
        banks still check their own timing and protocol state.  ``dest``
        marks the destination half of a MIGRATION, which writes the
        copied column into the open row.
        """
        group = self.groups[bank_group]
        target = group.banks[bank]
        t = self._timing
        if kind is _ACTIVATE:
            target.do_activate(at, row)
            self._recent_activates.append(at)
            self._last_activate_group = bank_group
            self.activates += 1
            done = at + t.tRCD
        elif kind is _PRECHARGE:
            target.do_precharge(at)
            self.precharges += 1
            done = at + t.tRP
        elif kind is _READ:
            done = target.do_read(at, column, row)
            self._note_column(bank_group, at)
            self.data_bus_busy_until = done
            group.occupy_bus(at + t.tCL, done)
            self.reads += 1
        elif kind is _WRITE:
            done = target.do_write(at, column, row)
            self._note_column(bank_group, at)
            self.data_bus_busy_until = done
            group.occupy_bus(at + t.tWL, done)
            self._last_write_data_end = done
            self._last_write_group = bank_group
            self.writes += 1
        elif kind is _MIGRATION:
            if dest:
                done = target.do_migration_write(at, column, row)
            else:
                done = target.do_migration_read(at, column, row)
            self._note_column(bank_group, at)
            group.occupy_bus(at, done)
            self.migrations += 1
        else:  # pragma: no cover
            raise ProtocolError(f"unknown command kind {kind}")
        self.command_bus_busy_until = at + COMMAND_BUS_CYCLES[kind]
        return done

    def _note_column(self, bank_group: int, now: int) -> None:
        self._last_column_issue = now
        self._last_column_group = bank_group
        for b in self.groups[bank_group].banks:
            b.note_column_issued(now, self._timing.tCCDl)

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
