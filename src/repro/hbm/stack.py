"""HBM stack: dies, channels, TSV bundles, and migration routing.

An HBM stack integrates 8 DRAM dies over a logic die; each die exposes one
memory channel, and the stack's eight TSV bundles carry the channels' data
to the interposer (Figure 7).  PageMove adds, per die, a 4x8 bank-group
crossbar, plus an enhanced tri-state decoder and idle-channel detection on
the logic die.

:class:`HBMStack` wires these together and implements the routing step of
a MIGRATION: find an idle TSV bundle, grant it to the source die, route the
source bank group onto it, and issue the paired column copy on the source
and destination channels.  :meth:`HBMStack.migrate` takes the MIGRATION by
coordinates; :meth:`HBMStack.issue_migration` unpacks a
:class:`~repro.hbm.commands.Command` into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import MigrationError, ProtocolError
from repro.hbm.channel import Channel
from repro.hbm.commands import Command, CommandKind
from repro.hbm.config import HBMConfig
from repro.hbm.crossbar import BankGroupCrossbar, TriStateDecoder

_MIGRATION = CommandKind.MIGRATION


@dataclass(frozen=True)
class TSVBundle:
    """A set of through-silicon vias forming one channel's data path."""

    index: int
    bits: int


class HBMStack:
    """One HBM stack of ``channels_per_stack`` dies/channels.

    Parameters
    ----------
    config:
        Structural and timing description.
    index:
        Stack id within the memory system.
    pagemove:
        When True (default), the stack carries PageMove hardware: enhanced
        tri-state decoder and fully connected bank-group crossbars.  When
        False, the stock 4x1 crossbars are modelled and cross-channel
        MIGRATION is rejected — the configuration used by the UGPU-Ori and
        UGPU-Soft baselines.
    """

    def __init__(self, config: HBMConfig, index: int = 0, pagemove: bool = True) -> None:
        config.validate()
        self.config = config
        self.index = index
        self.pagemove = pagemove
        n = config.channels_per_stack
        self.channels: List[Channel] = [Channel(config, c) for c in range(n)]
        self.tsvs: List[TSVBundle] = [TSVBundle(i, config.bus_bits) for i in range(n)]
        self.decoder = TriStateDecoder(n, enhanced=pagemove)
        width = config.channels_per_stack if pagemove else 1
        self.crossbars: List[BankGroupCrossbar] = [
            BankGroupCrossbar(config.bank_groups_per_channel, n, width=width)
            for _ in range(n)
        ]
        self.migrations_completed = 0

    # ------------------------------------------------------------------
    # Idle-channel / TSV detection (logic-die monitor, Section 4.2)
    # ------------------------------------------------------------------
    def idle_tsv_bundles(self, now: int, window: int = 100) -> List[int]:
        """TSV bundles whose owning channel has been idle for ``window``
        cycles and that carry no migration grant."""
        idle = []
        for bundle in range(len(self.tsvs)):
            channel = self.channels[bundle]
            if channel.is_idle_at(now, window) and self.decoder.is_free(bundle, now):
                idle.append(bundle)
        return idle

    def find_idle_tsv(self, now: int, exclude: Optional[List[int]] = None,
                      window: int = 100) -> Optional[int]:
        """Pick one idle TSV bundle, preferring the lowest index."""
        excluded = exclude or ()
        for bundle in range(len(self.tsvs)):
            if (bundle not in excluded
                    and self.channels[bundle].is_idle_at(now, window)
                    and self.decoder.is_free(bundle, now)):
                return bundle
        return None

    # ------------------------------------------------------------------
    # MIGRATION execution
    # ------------------------------------------------------------------
    def issue_migration(self, src_channel: int, cmd: Command, now: int) -> int:
        """Execute one MIGRATION command; return its completion cycle.

        Unpacks ``cmd`` into :meth:`migrate`, which documents the routing
        and every refusal; a ``cmd`` of another kind raises
        :class:`MigrationError`.
        """
        if cmd.kind is not CommandKind.MIGRATION:
            raise MigrationError(f"issue_migration got {cmd.kind}")
        return self.migrate(
            src_channel, cmd.bank_group, cmd.bank, cmd.row, cmd.column,
            cmd.dest_channel, cmd.dest_bank_group, cmd.dest_bank,
            cmd.dest_row, cmd.dest_column, cmd.tsv_index, now)

    def migrate(self, src_channel: int, bank_group: int, bank: int,
                row: Optional[int], column: int, dest_channel: int,
                dest_bank_group: int, dest_bank: int, dest_row: Optional[int],
                dest_column: int, tsv_index: int, now: int) -> int:
        """Execute one MIGRATION given by coordinates (the fields of
        :func:`~repro.hbm.commands.migration`); return its completion
        cycle.

        Performs PageMove's full routing: validates the destination is a
        different channel of *this* stack, grants the idle TSV bundle
        ``tsv_index`` to the source die, routes the source bank group
        through the 4x8 crossbar, and charges the column copy on both the
        source and destination banks.  Both halves issue at the first
        cycle >= ``now`` legal on both channels.

        Everything is checked before anything changes, so a refused
        MIGRATION leaves the stack as it was.

        Raises
        ------
        MigrationError
            On a cross-stack destination, source==destination channel, or
            when the stack has no PageMove hardware.
        ProtocolError
            On coordinates outside the channels, a source or destination
            bank without ``row``/``dest_row`` open, or a busy TSV bundle
            or crossbar route.
        """
        if not self.pagemove:
            raise MigrationError(
                "stack has no PageMove hardware; cross-channel MIGRATION "
                "is only available with the 4x8 crossbar"
            )
        if dest_channel == src_channel:
            raise MigrationError("MIGRATION source and destination channel are equal")
        channels = self.channels
        if not 0 <= dest_channel < len(channels):
            raise MigrationError(
                f"destination channel {dest_channel} outside this stack"
            )
        if tsv_index is None:
            raise MigrationError("MIGRATION requires an idle TSV index")

        src = self.channel(src_channel)
        dst = channels[dest_channel]
        issue_at = src.ready_cycle(_MIGRATION, bank_group, bank)
        ready = dst.ready_cycle(_MIGRATION, dest_bank_group, dest_bank)
        if ready > issue_at:
            issue_at = ready
        if now > issue_at:
            issue_at = now
        done = issue_at + self.config.timing.tMIG
        src.groups[bank_group].banks[bank].check_access(
            row, column, "MIGRATION(src)")
        dst.groups[dest_bank_group].banks[dest_bank].check_access(
            dest_row, dest_column, "MIGRATION(dst)")
        decoder = self.decoder
        decoder.check_grant(tsv_index, src_channel, issue_at, done)
        # Route the source bank group through the crossbar (it changes
        # nothing when it refuses), then bind the TSV bundle to the
        # source die for the copy duration.
        self.crossbars[src_channel].connect(bank_group, tsv_index, issue_at,
                                            done)
        decoder.bind(tsv_index, src_channel, done)

        src.apply(_MIGRATION, bank_group, bank, row, column, issue_at)
        dst.apply(_MIGRATION, dest_bank_group, dest_bank, dest_row,
                  dest_column, issue_at, dest=True)
        self.migrations_completed += 1
        return done

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def channel(self, index: int) -> Channel:
        if not 0 <= index < len(self.channels):
            raise ProtocolError(f"channel {index} out of range")
        return self.channels[index]

    def stats(self) -> dict:
        """Aggregate per-channel command counts for this stack."""
        total: dict = {"migrations_completed": self.migrations_completed}
        for channel in self.channels:
            for key, value in channel.stats().items():
                total[key] = total.get(key, 0) + value
        return total
