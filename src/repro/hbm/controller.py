"""FR-FCFS memory controller for one HBM channel.

Implements the paper's Table 1 controller: open-page policy, first-ready
first-come-first-served scheduling, 64-entry request queue.  The controller
operates in the memory clock domain and serves :class:`MemoryRequest`
objects that have already been decoded into bank coordinates (the address
mapping lives in :mod:`repro.pagemove.address_mapping`).

FR-FCFS: among queued requests, those hitting a currently open row are
served first (oldest hit first); if none hit, the oldest request wins and
the controller issues the PRECHARGE/ACTIVATE pair it needs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import ProtocolError
from repro.hbm.channel import Channel
from repro.hbm.commands import CommandKind
from repro.hbm.config import HBMConfig
from repro.obs import OFF, Obs


class RequestKind(enum.Enum):
    """Demand request types served by the controller."""

    READ = "read"
    WRITE = "write"


@dataclass
class MemoryRequest:
    """One cache-line demand access, pre-decoded to bank coordinates."""

    kind: RequestKind
    bank_group: int
    bank: int
    row: int
    column: int
    arrival: int = 0
    app_id: Optional[int] = None
    #: Filled by the controller when the request's data burst completes.
    completed_at: Optional[int] = None

    @property
    def latency(self) -> Optional[int]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.arrival


@dataclass
class ControllerStats:
    """Aggregated controller statistics."""

    served: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    total_latency: int = 0
    bytes_moved: int = 0

    @property
    def row_hit_rate(self) -> float:
        if self.served == 0:
            return 0.0
        return self.row_hits / self.served

    @property
    def mean_latency(self) -> float:
        if self.served == 0:
            return 0.0
        return self.total_latency / self.served


class MemoryController:
    """FR-FCFS scheduler bound to one :class:`Channel`.

    Optionally buffers writes: reads are latency-critical, so writes park
    in a write buffer and drain in bursts once the buffer crosses its high
    watermark (or on :meth:`drain`), amortizing the write-to-read
    turnaround penalty — the standard GPU memory-controller policy.
    """

    def __init__(self, config: HBMConfig, channel: Optional[Channel] = None,
                 refresh_enabled: bool = False,
                 write_buffer_entries: int = 0,
                 write_high_watermark: float = 0.75,
                 write_low_watermark: float = 0.25,
                 obs: Obs = OFF) -> None:
        """``refresh_enabled`` turns on all-bank refresh: every tREFI the
        controller closes all rows and blocks the channel for tRFC (off by
        default — the short command-level experiments rarely span a
        refresh interval, but long replays can enable it).
        ``write_buffer_entries`` > 0 enables write buffering.
        ``obs`` (a :class:`repro.obs.Obs` handle) gets metrics counting
        per-channel serviced commands and row-buffer outcomes, a gauge of
        achieved/peak bandwidth utilization after each :meth:`drain`, and
        an ``hbm.service_requests`` host phase per :meth:`drain`."""
        config.validate()
        if write_buffer_entries < 0:
            raise ProtocolError("write_buffer_entries must be non-negative")
        if not 0.0 <= write_low_watermark < write_high_watermark <= 1.0:
            raise ProtocolError("watermarks must satisfy 0 <= low < high <= 1")
        self.config = config
        self.channel = channel if channel is not None else Channel(config, 0)
        self.queue: List[MemoryRequest] = []
        self.stats = ControllerStats()
        self.now = 0
        self.refresh_enabled = refresh_enabled
        self._next_refresh = config.timing.tREFI
        self.refreshes = 0
        self.write_buffer_entries = write_buffer_entries
        self.write_high_watermark = write_high_watermark
        self.write_low_watermark = write_low_watermark
        self.write_buffer: List[MemoryRequest] = []
        self.write_bursts = 0
        self.obs = obs
        if obs.on:
            from repro.telemetry import names as _names

            chan = str(self.channel.index)
            requests = obs.metric(_names.hbm_requests_total)
            outcomes = obs.metric(_names.hbm_row_outcomes_total)
            self._m_reads = requests.labels(channel=chan, kind="read")
            self._m_writes = requests.labels(channel=chan, kind="write")
            self._m_hits = outcomes.labels(channel=chan, outcome="hit")
            self._m_misses = outcomes.labels(channel=chan, outcome="miss")
            self._m_conflicts = outcomes.labels(channel=chan, outcome="conflict")
            self._m_bw = obs.metric(_names.hbm_bandwidth_utilization).labels(
                channel=chan
            )

    @property
    def queue_free_slots(self) -> int:
        return self.config.queue_entries - len(self.queue)

    def enqueue(self, request: MemoryRequest) -> None:
        """Add a request; the queue holds at most ``queue_entries``.

        With write buffering enabled, writes go to the write buffer
        instead and a burst drain triggers at the high watermark.  A
        request addressing a bank group, bank or row outside the channel,
        or a negative column, raises :class:`ProtocolError` before it is
        queued.
        """
        cfg = self.config
        if not (0 <= request.bank_group < cfg.bank_groups_per_channel
                and 0 <= request.bank < cfg.banks_per_group
                and 0 <= request.row < cfg.rows_per_bank
                and request.column >= 0):
            raise ProtocolError(
                f"{request} is outside the channel: bank_group in "
                f"[0, {cfg.bank_groups_per_channel}), bank in "
                f"[0, {cfg.banks_per_group}), row in [0, {cfg.rows_per_bank}) "
                "and column >= 0"
            )
        request.arrival = max(request.arrival, 0)
        if (self.write_buffer_entries > 0
                and request.kind is RequestKind.WRITE):
            if len(self.write_buffer) >= self.write_buffer_entries:
                self._drain_writes(
                    down_to=int(self.write_low_watermark
                                * self.write_buffer_entries)
                )
            self.write_buffer.append(request)
            if len(self.write_buffer) >= int(
                self.write_high_watermark * self.write_buffer_entries
            ):
                self._drain_writes(
                    down_to=int(self.write_low_watermark
                                * self.write_buffer_entries)
                )
            return
        if len(self.queue) >= self.config.queue_entries:
            raise ProtocolError(
                f"request queue full ({self.config.queue_entries} entries)"
            )
        self.queue.append(request)

    def _drain_writes(self, down_to: int) -> None:
        """Burst-issue buffered writes until the buffer holds ``down_to``."""
        if len(self.write_buffer) <= down_to:
            return
        self.write_bursts += 1
        while len(self.write_buffer) > down_to:
            batch = self.write_buffer[: self.config.queue_entries - len(self.queue)]
            if not batch:
                break  # pragma: no cover - queue full of reads
            del self.write_buffer[: len(batch)]
            self.queue.extend(batch)
            while self.queue:
                self.service_one()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _pick(self) -> int:
        """FR-FCFS selection among queued requests that have arrived.

        Returns the queue index of the winner.  One pass tracks the best
        (earliest arrival, then earliest queue position) request in each
        of the four priority classes — arrived row-hit, arrived, pending
        row-hit, pending — instead of materializing candidate lists and
        re-scanning the queue for positions, which made selection
        quadratic in the queue depth.  Each bank's open row is read once
        per pick (``enqueue`` has range-checked every coordinate).
        """
        now = self.now
        open_rows = [[bank.open_row for bank in group.banks]
                     for group in self.channel.groups]
        arrived_hit = arrived_any = pending_hit = pending_any = -1
        arrived_hit_t = arrived_any_t = pending_hit_t = pending_any_t = 0
        for i, r in enumerate(self.queue):
            arrival = r.arrival
            hit = open_rows[r.bank_group][r.bank] == r.row
            if arrival <= now:
                if hit and (arrived_hit < 0 or arrival < arrived_hit_t):
                    arrived_hit, arrived_hit_t = i, arrival
                if arrived_any < 0 or arrival < arrived_any_t:
                    arrived_any, arrived_any_t = i, arrival
            elif arrived_any < 0:
                # Pending classes only matter while nothing has arrived.
                if hit and (pending_hit < 0 or arrival < pending_hit_t):
                    pending_hit, pending_hit_t = i, arrival
                if pending_any < 0 or arrival < pending_any_t:
                    pending_any, pending_any_t = i, arrival
        if arrived_any >= 0:
            return arrived_hit if arrived_hit >= 0 else arrived_any
        return pending_hit if pending_hit >= 0 else pending_any

    def service_one(self) -> MemoryRequest:
        """Serve the next request per FR-FCFS; returns it completed."""
        if not self.queue:
            raise ProtocolError("controller queue is empty")
        request = self.queue.pop(self._pick())
        self.now = max(self.now, request.arrival)
        self._maybe_refresh()

        channel = self.channel
        group, bank, row = request.bank_group, request.bank, request.row
        target = channel.groups[group].bank(bank)
        if target.is_row_open(row):
            self.stats.row_hits += 1
            if self.obs.on:
                self._m_hits.inc()
        elif target.open_row is None:
            self.stats.row_misses += 1
            if self.obs.on:
                self._m_misses.inc()
            self.now, _ = channel.issue_earliest(
                CommandKind.ACTIVATE, group, bank, row, None, self.now)
        else:
            self.stats.row_conflicts += 1
            if self.obs.on:
                self._m_conflicts.inc()
            at, _ = channel.issue_earliest(
                CommandKind.PRECHARGE, group, bank, None, None, self.now)
            self.now, _ = channel.issue_earliest(
                CommandKind.ACTIVATE, group, bank, row, None, at)

        kind = (CommandKind.READ if request.kind is RequestKind.READ
                else CommandKind.WRITE)
        self.now, done = channel.issue_earliest(
            kind, group, bank, row, request.column, self.now)
        request.completed_at = done

        self.stats.served += 1
        self.stats.total_latency += done - request.arrival
        self.stats.bytes_moved += self.config.column_bytes
        if self.obs.on:
            if request.kind is RequestKind.READ:
                self._m_reads.inc()
            else:
                self._m_writes.inc()
        return request

    def _maybe_refresh(self) -> None:
        """Issue due all-bank refreshes: close every row, block tRFC."""
        if not self.refresh_enabled:
            return
        t = self.config.timing
        while self.now >= self._next_refresh:
            # Precharge-all: wait for every bank to become precharge-able.
            start = self._next_refresh
            for group in self.channel.groups:
                for bank in group.banks:
                    if bank.open_row is not None:
                        start = max(start, bank.earliest_precharge())
            for group in self.channel.groups:
                for bank in group.banks:
                    if bank.open_row is not None:
                        bank.do_precharge(max(start, bank.earliest_precharge()))
            self.now = max(self.now, start) + t.tRFC
            self._next_refresh += t.tREFI
            self.refreshes += 1

    def drain(self) -> List[MemoryRequest]:
        """Serve every queued request (and flush the write buffer);
        returns the served requests in completion order."""
        with self.obs.span("hbm.service_requests"):
            completed: List[MemoryRequest] = []
            while self.queue:
                completed.append(self.service_one())
            if self.write_buffer:
                writes = list(self.write_buffer)
                self._drain_writes(down_to=0)
                completed.extend(writes)
            completed.sort(key=lambda r: r.completed_at)
            if self.obs.on:
                peak = self.config.channel_bandwidth_gbps
                self._m_bw.set(
                    self.achieved_bandwidth_gbps() / peak if peak > 0 else 0.0
                )
            return completed

    def achieved_bandwidth_gbps(self) -> float:
        """Data bandwidth achieved so far, in decimal GB/s."""
        if self.now <= 0:
            return 0.0
        seconds = self.now / (self.config.freq_mhz * 1e6)
        return self.stats.bytes_moved / seconds / 1e9
