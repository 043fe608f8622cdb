"""The L2-TLB channel-status register (paper Section 4.4).

Per application the hardware keeps an 11-bit record: 2 bits of application
id (so up to 4 applications), 1 status bit saying whether the application
*gained* or *lost* memory channels in the most recent reallocation, and 8
bits marking channels.  The marks are interpreted relative to the status
bit:

* direction ``LOST``  — a '1' marks a channel the application still owns;
  a translation landing in an unmarked channel means the page sits in a
  deallocated channel and must migrate out.
* direction ``GAINED`` — a '1' marks a *newly granted* channel; pages found
  outside those channels are candidates to migrate in, to spread load onto
  the new bandwidth.

The 8 channel bits index *channel groups* (one channel per HBM stack, see
:mod:`repro.pagemove.address_mapping`), matching the paper's 8
channels-per-stack geometry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional

from repro.errors import ConfigError


class ReallocationDirection(enum.Enum):
    """Did the application gain or lose channels this reallocation?"""

    LOST = 0
    GAINED = 1


@dataclass(frozen=True)
class _Record:
    direction: ReallocationDirection
    marked: FrozenSet[int]


class ChannelStatusRegister:
    """Hardware register bank tracking channel reallocation per app."""

    APP_ID_BITS = 2
    CHANNEL_BITS = 8

    def __init__(self, max_apps: Optional[int] = None,
                 num_channel_groups: Optional[int] = None) -> None:
        self.max_apps = max_apps if max_apps is not None else 1 << self.APP_ID_BITS
        self.num_channel_groups = (
            num_channel_groups if num_channel_groups is not None else self.CHANNEL_BITS
        )
        if self.max_apps <= 0 or self.num_channel_groups <= 0:
            raise ConfigError("register sizes must be positive")
        self._records: Dict[int, _Record] = {}

    def _check_app(self, app_id: int) -> None:
        if not 0 <= app_id < self.max_apps:
            raise ConfigError(
                f"app id {app_id} exceeds register capacity ({self.max_apps} apps)"
            )

    def _check_channels(self, channels: Iterable[int]) -> FrozenSet[int]:
        marked = frozenset(channels)
        for channel in marked:
            if not 0 <= channel < self.num_channel_groups:
                raise ConfigError(
                    f"channel group {channel} exceeds register width "
                    f"({self.num_channel_groups} bits)"
                )
        return marked

    def check(self, app_id: int, channels: Iterable[int] = ()) -> None:
        """Raise what :meth:`set_lost` or :meth:`set_gained` would raise
        for ``app_id`` and ``channels``; changes nothing."""
        self._check_app(app_id)
        self._check_channels(channels)

    # ------------------------------------------------------------------
    # Configuration (driven by the resource-partition decision)
    # ------------------------------------------------------------------
    def set_lost(self, app_id: int, still_owned: Iterable[int]) -> None:
        """Record that ``app_id`` lost channels; mark those it keeps."""
        self._check_app(app_id)
        self._records[app_id] = _Record(
            ReallocationDirection.LOST, self._check_channels(still_owned)
        )

    def set_gained(self, app_id: int, newly_granted: Iterable[int]) -> None:
        """Record that ``app_id`` gained the ``newly_granted`` channels."""
        self._check_app(app_id)
        self._records[app_id] = _Record(
            ReallocationDirection.GAINED, self._check_channels(newly_granted)
        )

    def clear(self, app_id: int) -> None:
        """Driver request once page counts are balanced (Section 4.4)."""
        self._check_app(app_id)
        self._records.pop(app_id, None)

    # ------------------------------------------------------------------
    # Queries made on every L2 TLB hit during reallocation
    # ------------------------------------------------------------------
    def is_tracking(self, app_id: int) -> bool:
        self._check_app(app_id)
        return app_id in self._records

    def direction(self, app_id: int) -> Optional[ReallocationDirection]:
        self._check_app(app_id)
        record = self._records.get(app_id)
        return record.direction if record else None

    def needs_migration(self, app_id: int, channel: int) -> bool:
        """Should a translated page found in ``channel`` be migrated?

        Both directions share one check — a page migrates when its
        channel is unmarked — because the *marks* differ by direction:
        LOST marks the channels the application still owns (an unmarked
        channel was taken away), GAINED marks the newly granted channels
        (an unmarked channel is an old one whose pages spread out).
        Returns False when the application is not being tracked.
        """
        self._check_app(app_id)
        record = self._records.get(app_id)
        return record is not None and channel not in record.marked

    def marked_channels(self, app_id: int) -> FrozenSet[int]:
        self._check_app(app_id)
        record = self._records.get(app_id)
        return record.marked if record else frozenset()

    def encoded_bits(self, app_id: int) -> int:
        """The raw 11-bit register value (2b app | 1b status | 8b marks),
        mirroring the paper's encoding; useful for hardware-cost tests."""
        self._check_app(app_id)
        record = self._records.get(app_id)
        if record is None:
            return 0
        mask = 0
        for channel in record.marked:
            mask |= 1 << channel
        return (app_id << 9) | (record.direction.value << 8) | mask
