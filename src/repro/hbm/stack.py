"""HBM stack: dies, channels, TSV bundles, and migration routing.

An HBM stack integrates 8 DRAM dies over a logic die; each die exposes one
memory channel, and the stack's eight TSV bundles carry the channels' data
to the interposer (Figure 7).  PageMove adds, per die, a 4x8 bank-group
crossbar, plus an enhanced tri-state decoder and idle-channel detection on
the logic die.

:class:`HBMStack` wires these together and implements the routing step of
a MIGRATION: find an idle TSV bundle, grant it to the source die, route the
source bank group onto it, and issue the paired column copy on the source
and destination channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import MigrationError, ProtocolError
from repro.hbm.channel import Channel
from repro.hbm.commands import Command, CommandKind
from repro.hbm.config import HBMConfig
from repro.hbm.crossbar import BankGroupCrossbar, TriStateDecoder


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

        Performs PageMove's full routing: validates the destination is a
        different channel of *this* stack, grants the idle TSV bundle to the
        source die, routes the source bank group through the 4x8 crossbar,
        and charges the column copy on both the source and destination
        banks.  Both halves issue at the first cycle >= ``now`` legal on
        both channels.

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
        if cmd.kind is not CommandKind.MIGRATION:
            raise MigrationError(f"issue_migration got {cmd.kind}")
        if not self.pagemove:
            raise MigrationError(
                "stack has no PageMove hardware; cross-channel MIGRATION "
                "is only available with the 4x8 crossbar"
            )
        if cmd.dest_channel == src_channel:
            raise MigrationError("MIGRATION source and destination channel are equal")
        if not 0 <= cmd.dest_channel < len(self.channels):
            raise MigrationError(
                f"destination channel {cmd.dest_channel} outside this stack"
            )
        if cmd.tsv_index is None:
            raise MigrationError("MIGRATION requires an idle TSV index")

        src = self.channel(src_channel)
        dst = self.channels[cmd.dest_channel]
        issue_at = max(
            now,
            src.ready_cycle(cmd.kind, cmd.bank_group, cmd.bank),
            dst.ready_cycle(cmd.kind, cmd.dest_bank_group, cmd.dest_bank),
        )
        done = issue_at + self.config.timing.tMIG
        src.groups[cmd.bank_group].banks[cmd.bank].check_access(
            cmd.row, cmd.column, "MIGRATION(src)")
        dst.groups[cmd.dest_bank_group].banks[cmd.dest_bank].check_access(
            cmd.dest_row, cmd.dest_column, "MIGRATION(dst)")
        self.decoder.check_grant(cmd.tsv_index, src_channel, issue_at, done)
        # Route the source bank group through the crossbar (it changes
        # nothing when it refuses), then grant the TSV bundle to the
        # source die for the copy duration.
        self.crossbars[src_channel].connect(
            cmd.bank_group, cmd.tsv_index, issue_at, done
        )
        self.decoder.grant(cmd.tsv_index, src_channel, issue_at, done)

        src.apply(cmd.kind, cmd.bank_group, cmd.bank, cmd.row, cmd.column,
                  issue_at)
        dst_done = dst.apply(cmd.kind, cmd.dest_bank_group, cmd.dest_bank,
                             cmd.dest_row, cmd.dest_column, issue_at, dest=True)
        self.migrations_completed += 1
        return max(done, dst_done)

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
