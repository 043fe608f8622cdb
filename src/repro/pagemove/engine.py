"""Migration engine: plan and execute page migrations coherently.

This is the orchestration layer of Section 4.4.  When the resource
partitioner hands a memory channel from one application to another, the
engine:

1. flushes every SM's L1 TLB (all translations revalidate via the L2),
2. programs the L2-TLB channel-status register for both applications,
3. plans the page set to migrate — *eager* migrations vacate channels the
   losing application no longer owns; *lazy* migrations spread the gaining
   application's pages onto its new channels for bandwidth,
4. executes the plan: updates the driver's residency bookkeeping, the page
   table, and the L2 TLB, and costs the data movement with the
   :class:`~repro.pagemove.cost.MigrationCostModel` (or, for validation,
   by driving the command-level HBM model MIGRATION by MIGRATION).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import cycle, islice
from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import MigrationError, ProtocolError
from repro.hbm.commands import CommandKind, migration
from repro.hbm.system import HBMSystem
from repro.pagemove.address_mapping import PageMoveAddressMapping
from repro.pagemove.cost import MigrationCharge, MigrationCostModel, MigrationMode
from repro.vm.channel_registry import ChannelStatusRegister
from repro.vm.driver import FaultKind, GPUDriver
from repro.vm.tlb import TLB

#: Retries granted to one MIGRATION command waiting for a narrow (stock)
#: crossbar route to free before the command-level replay gives up.
CROSSBAR_RETRY_LIMIT = 256


def _round_robin_destinations(kept: List[int], start: int, count: int) -> List[int]:
    """Destination channels for ``count`` pages round-robined over
    ``kept``, continuing from offset ``start``: page ``i`` goes to
    ``kept[(start + i) % len(kept)]``."""
    offset = start % len(kept)
    return list(islice(cycle(kept[offset:] + kept[:offset]), count))


@dataclass(frozen=True)
class PageMigration:
    """One page's planned move between channel groups."""

    app_id: int
    vpn: int
    src_channel: int
    dst_channel: int


@dataclass
class MigrationPlan:
    """Planned migrations for one reallocation event.

    ``eager`` pages sit in channels taken away and must move before the
    new owner can use them; ``lazy`` pages are rebalance candidates that
    migrate opportunistically (demand faults / background trickle).
    """

    app_id: int
    old_channels: frozenset
    new_channels: frozenset
    eager: List[PageMigration] = field(default_factory=list)
    lazy: List[PageMigration] = field(default_factory=list)

    @property
    def lost_channels(self) -> frozenset:
        return self.old_channels - self.new_channels

    @property
    def gained_channels(self) -> frozenset:
        return self.new_channels - self.old_channels

    @property
    def total_pages(self) -> int:
        return len(self.eager) + len(self.lazy)


@dataclass
class MigrationReport:
    """Outcome of executing a migration plan."""

    plan: MigrationPlan
    eager_charge: MigrationCharge
    lazy_charge: MigrationCharge
    l1_entries_flushed: int = 0
    l2_entries_invalidated: int = 0

    @property
    def pages_moved(self) -> int:
        return len(self.plan.eager) + len(self.plan.lazy)

    @property
    def window_cycles(self) -> float:
        """Wall-clock cycles of the eager migration window; lazy moves
        overlap with execution and are charged separately."""
        return self.eager_charge.window_cycles


class MigrationEngine:
    """Coordinates driver, TLBs, status register and the cost model."""

    def __init__(
        self,
        driver: GPUDriver,
        mapping: Optional[PageMoveAddressMapping] = None,
        cost_model: Optional[MigrationCostModel] = None,
        l2_tlb: Optional[TLB] = None,
        l1_tlbs: Optional[Sequence[TLB]] = None,
        registry: Optional[ChannelStatusRegister] = None,
        mode: MigrationMode = MigrationMode.PPMM,
        tracer=None,
        metrics=None,
        profiler=None,
        log=None,
    ) -> None:
        self.driver = driver
        self.tracer = tracer
        self.metrics = metrics
        self.profiler = profiler
        self.log = log
        if metrics is not None:
            from repro.telemetry import names as _names

            self._m_pages = _names.pagemove_pages_total(metrics)
            self._m_commands = _names.pagemove_commands_total(metrics)
            self._m_window = _names.pagemove_window_cycles_total(metrics)
        self.mapping = mapping if mapping is not None else PageMoveAddressMapping()
        self.cost_model = (
            cost_model if cost_model is not None else MigrationCostModel(mapping=self.mapping)
        )
        self.l2_tlb = l2_tlb if l2_tlb is not None else TLB.l2()
        self.l1_tlbs = list(l1_tlbs) if l1_tlbs is not None else []
        self.registry = registry if registry is not None else ChannelStatusRegister(
            num_channel_groups=driver.num_channel_groups
        )
        self.mode = mode
        self.reports: List[MigrationReport] = []

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan_channel_reallocation(
        self, app_id: int, new_channels: Iterable[int],
        rebalance_cap: Optional[int] = None,
    ) -> MigrationPlan:
        """Compute the page moves implied by switching ``app_id`` from its
        current channel set to ``new_channels``.

        ``rebalance_cap`` bounds the lazy batch (None = rebalance fully).
        """
        if self.profiler is not None:
            with self.profiler.span("pagemove.plan"):
                return self._plan_channel_reallocation(
                    app_id, new_channels, rebalance_cap
                )
        return self._plan_channel_reallocation(app_id, new_channels, rebalance_cap)

    def _plan_channel_reallocation(
        self, app_id: int, new_channels: Iterable[int],
        rebalance_cap: Optional[int] = None,
    ) -> MigrationPlan:
        old = frozenset(self.driver.assigned_channels(app_id))
        new = frozenset(new_channels)
        if not new:
            raise MigrationError("an application must keep at least one channel")
        plan = MigrationPlan(app_id=app_id, old_channels=old, new_channels=new)
        table = self.driver.page_tables[app_id]

        kept = sorted(old & new) or sorted(new)
        # Eager: vacate lost channels, round-robin over surviving channels.
        # The per-page destination is a pure function of the page's ordinal,
        # so the whole channel's assignment is computed in one batch.
        eager = plan.eager
        rr = 0
        for channel in sorted(old - new):
            vpns = [vpn for vpn, _ in table.pages_in_channel(channel)]
            if not vpns:
                continue
            dsts = _round_robin_destinations(kept, rr, len(vpns))
            eager.extend(
                PageMigration(app_id, vpn, src_channel=channel, dst_channel=dst)
                for vpn, dst in zip(vpns, dsts)
            )
            rr += len(vpns)

        # Lazy: move pages toward the gained channels until balanced.
        gained = sorted(new - old)
        if gained:
            counts = table.channel_page_counts()
            resident = sum(counts.get(c, 0) for c in new)
            target = resident // len(new) if new else 0
            budget = rebalance_cap
            donors = sorted(
                (c for c in old & new),
                key=lambda c: -counts.get(c, 0),
            )
            # A gained channel may already hold pages (a previous
            # reallocation's lazy batch, or demand faults since the
            # channel was last owned); its need is the shortfall to the
            # balance target, never the full target, or back-to-back
            # reallocations over-migrate into partially filled channels.
            need = {g: max(0, target - counts.get(g, 0)) for g in gained}
            lazy = plan.lazy
            single = gained[0] if len(gained) == 1 else None
            for donor in donors:
                surplus = counts.get(donor, 0) - target
                if surplus <= 0:
                    continue
                if single is not None:
                    # Bulk fast path: with one gained channel every page
                    # shares a destination, so the per-page max()/decrement
                    # walk collapses to a single sliced take.  Once need or
                    # budget hits zero no later donor can contribute either.
                    take = min(surplus, need[single])
                    if budget is not None:
                        take = min(take, budget)
                    if take <= 0:
                        break
                    lazy.extend(
                        PageMigration(
                            app_id, vpn, src_channel=donor, dst_channel=single
                        )
                        for vpn, _ in islice(table.pages_in_channel(donor), take)
                    )
                    need[single] -= take
                    if budget is not None:
                        budget -= take
                    continue
                for vpn, entry in table.pages_in_channel(donor):
                    if surplus <= 0:
                        break
                    dst = max(need, key=lambda g: need[g])
                    if need[dst] <= 0:
                        break
                    if budget is not None and budget <= 0:
                        break
                    lazy.append(
                        PageMigration(app_id, vpn, src_channel=donor, dst_channel=dst)
                    )
                    need[dst] -= 1
                    surplus -= 1
                    if budget is not None:
                        budget -= 1
        if self.tracer is not None:
            self.tracer.emit(
                "migration", "plan", app_id=app_id,
                eager=len(plan.eager), lazy=len(plan.lazy),
                lost_channels=sorted(plan.lost_channels),
                gained_channels=sorted(plan.gained_channels),
            )
        if self.log is not None:
            self.log.debug(
                "pagemove.plan", job_id=app_id,
                eager=len(plan.eager), lazy=len(plan.lazy),
                lost=len(plan.lost_channels),
                gained=len(plan.gained_channels),
            )
        return plan

    # ------------------------------------------------------------------
    # Execution (bookkeeping + analytic cost)
    # ------------------------------------------------------------------
    def execute(self, plan: MigrationPlan, include_lazy: bool = True) -> MigrationReport:
        """Apply a plan: VM state updates plus analytic data-movement cost.

        The plan is validated against destination-channel capacity before
        any page moves, so a plan that cannot complete is rejected whole
        rather than leaving the address space half-migrated.
        """
        if self.profiler is not None:
            with self.profiler.span("pagemove.execute"):
                return self._execute(plan, include_lazy)
        return self._execute(plan, include_lazy)

    def _execute(self, plan: MigrationPlan, include_lazy: bool = True) -> MigrationReport:
        app_id = plan.app_id
        self._check_capacity(plan, include_lazy)
        # 1. Flush L1 TLBs (all SMs revalidate through the L2 TLB).
        l1_flushed = sum(tlb.flush() for tlb in self.l1_tlbs)

        # 2. Program the channel-status register.  The register's status
        # bit is a single bit, so a plan that both loses and gains
        # channels must pick one direction: LOST wins.  Vacating
        # deallocated channels is the coherence-critical work of Section
        # 4.4 — marking the kept set (new_channels) routes every
        # translation landing outside it to a LOST_CHANNEL fault — while
        # the gained-side rebalance proceeds lazily via demand faults
        # without needing register guidance.
        if plan.lost_channels:
            self.registry.set_lost(app_id, sorted(plan.new_channels))
        elif plan.gained_channels:
            self.registry.set_gained(app_id, sorted(plan.gained_channels))

        # 3. Update the driver's channel assignment.
        self.driver.reassign_channels(app_id, plan.new_channels)

        # 4. Move pages: eager always, lazy optionally.
        l2_invalidated = 0
        l2_invalidated += self._move_pages(plan.eager, FaultKind.LOST_CHANNEL)
        lazy_moves = plan.lazy if include_lazy else []
        l2_invalidated += self._move_pages(lazy_moves, FaultKind.REBALANCE)

        # 5. Clear the register once balanced (Section 4.4).  Tolerance 1
        # matches GPUDriver.is_balanced's default and the paper's
        # clearing condition: per-channel page counts within one page of
        # each other.  (A tolerance scaled by channel count would declare
        # an 8-channel app "balanced" at a max-min spread of 8 pages and
        # clear the register while rebalancing is still in flight.)
        if self.driver.is_balanced(app_id, tolerance=1):
            self.registry.clear(app_id)

        report = MigrationReport(
            plan=plan,
            eager_charge=self.cost_model.charge(len(plan.eager), self.mode),
            lazy_charge=self.cost_model.charge(len(lazy_moves), self.mode),
            l1_entries_flushed=l1_flushed,
            l2_entries_invalidated=l2_invalidated,
        )
        self.reports.append(report)
        if self.tracer is not None:
            direction = self.registry.direction(app_id)
            self.tracer.emit(
                "migration", "execute",
                duration=report.window_cycles, app_id=app_id,
                eager=len(plan.eager), lazy=len(lazy_moves),
                mode=self.mode.value,
                l1_flushed=l1_flushed, l2_invalidated=l2_invalidated,
                register=direction.name.lower() if direction else "cleared",
                eager_cycles=report.eager_charge.window_cycles,
                lazy_cycles=report.lazy_charge.window_cycles,
            )
        if self.metrics is not None:
            self._m_pages.labels(kind="eager").inc(len(plan.eager))
            self._m_pages.labels(kind="lazy").inc(len(lazy_moves))
            self._m_window.inc(report.window_cycles)
        if self.log is not None:
            self.log.info(
                "pagemove.execute", job_id=app_id,
                eager=len(plan.eager), lazy=len(lazy_moves),
                window_cycles=round(report.window_cycles, 3),
                l1_flushed=l1_flushed, l2_invalidated=l2_invalidated,
            )
        return report

    def _check_capacity(self, plan: MigrationPlan, include_lazy: bool) -> None:
        """Reject plans whose destinations cannot absorb the pages.

        Frames freed by this plan's own moves *out of* a channel do not
        count: the conservative check is incoming pages against currently
        free frames, which is exact for the eager (vacate) direction and
        safe for rebalance.
        """
        moves = list(plan.eager) + (list(plan.lazy) if include_lazy else [])
        incoming: dict = {}
        for move in moves:
            incoming[move.dst_channel] = incoming.get(move.dst_channel, 0) + 1
        for channel, pages in incoming.items():
            free = self.driver.free_pages(channel)
            if pages > free:
                raise MigrationError(
                    f"plan needs {pages} frames in channel {channel} but "
                    f"only {free} are free; rejecting before any page moves"
                )

    def _move_pages(self, migrations: List[PageMigration], kind: FaultKind) -> int:
        if not migrations:
            return 0
        invalidated = 0
        tables = self.driver.page_tables
        invalidate = self.l2_tlb.invalidate
        handle_fault = self.driver.handle_fault
        for move in migrations:
            entry = tables[move.app_id].lookup(move.vpn)
            if entry is None or entry.channel != move.src_channel:
                raise MigrationError(
                    f"stale plan: vpn {move.vpn:#x} not resident in channel "
                    f"{move.src_channel}"
                )
            if invalidate(move.app_id, move.vpn):
                invalidated += 1
            handle_fault(
                kind, move.app_id, move.vpn, target_channel=move.dst_channel
            )
        return invalidated

    # ------------------------------------------------------------------
    # Command-level execution (validation path)
    # ------------------------------------------------------------------
    def execute_page_on_hardware(
        self, system: HBMSystem, src_rpn: int, dst_channel: int, now: int = 0
    ) -> int:
        """Drive the command-level HBM model to migrate one page.

        Issues the paper's 32 MIGRATION commands (2 per bank group, over
        all 4 stacks) preceded by the row activations both sides need.
        Returns the completion cycle (memory clock domain).  Used by the
        migration-latency microbenchmarks to validate the analytic model.
        """
        coords = self.mapping.page_coordinates(src_rpn)
        if dst_channel == coords.channel:
            raise MigrationError("destination channel equals source channel")
        cfg = system.config
        done = now
        commands_issued = 0
        for stack_idx, stack in enumerate(system.stacks):
            src_ch = stack.channel(coords.channel)
            dst_ch = stack.channel(dst_channel)
            # Activate the row in every bank group on both sides (skipping
            # banks whose row is already open from a previous page).
            ready = now
            for group in range(cfg.bank_groups_per_channel):
                for ch in (src_ch, dst_ch):
                    bank = ch.groups[group].bank(coords.bank)
                    if bank.is_row_open(coords.row):
                        continue
                    if bank.open_row is not None:
                        ready, _ = ch.issue_earliest(
                            CommandKind.PRECHARGE, group, coords.bank,
                            None, None, ready)
                    ready, _ = ch.issue_earliest(
                        CommandKind.ACTIVATE, group, coords.bank, coords.row,
                        None, ready)
            ready += cfg.timing.tRCD
            # PPMM issues wave by wave: one MIGRATION per bank group
            # concurrently, then each group's next column — so only
            # `columns_per_slice` commands serialize per group and the
            # shared command bus sees the waves in chronological order.
            group_time = {g: ready for g in range(cfg.bank_groups_per_channel)}
            for slot in range(self.mapping.columns_per_slice):
                for group in range(cfg.bank_groups_per_channel):
                    column = coords.column_base + slot
                    t = group_time[group]
                    tsv = stack.find_idle_tsv(
                        t, exclude=[coords.channel, dst_channel], window=0
                    )
                    # Bounded wait for a TSV bundle to free up.
                    waited = 0
                    while tsv is None and waited < 64:
                        t += cfg.timing.tMIG // 4
                        waited += 1
                        tsv = stack.find_idle_tsv(
                            t, exclude=[coords.channel, dst_channel], window=0
                        )
                    if tsv is None:
                        raise MigrationError("no idle TSV bundle available")
                    cmd = migration(
                        group, coords.bank, coords.row, column,
                        dest_channel=dst_channel, dest_bank_group=group,
                        dest_bank=coords.bank, dest_row=coords.row,
                        dest_column=column, tsv_index=tsv,
                    )
                    # A narrow (stock) crossbar may reject the route; wait
                    # for it to free and retry — this is exactly the
                    # serialization PageMove's 4x8 crossbar removes.
                    for _ in range(CROSSBAR_RETRY_LIMIT):
                        try:
                            group_time[group] = stack.issue_migration(
                                coords.channel, cmd, t
                            )
                            commands_issued += 1
                            break
                        except ProtocolError:
                            t += cfg.timing.tMIG // 4
                    else:  # pragma: no cover - defensive
                        raise RuntimeError(
                            f"crossbar route {coords.channel}->{dst_channel} "
                            f"(stack {stack_idx}, bank group {group}) did not "
                            f"free after {CROSSBAR_RETRY_LIMIT} retries; the "
                            "migration replay is not converging"
                        )
            done = max(done, max(group_time.values()))
        if self.metrics is not None:
            self._m_commands.inc(commands_issued)
        return done
