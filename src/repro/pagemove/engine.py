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

A plan is checked whole before step 1, so a plan that cannot complete
changes nothing.  Its moves then drop their L2 translations in one scan
of the L2 TLB and reach the driver as one batch of faults per kind
(:meth:`~repro.vm.driver.GPUDriver.migrate_pages`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, cycle, islice, repeat
from operator import attrgetter
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from repro.errors import AllocationError, MigrationError, ProtocolError
from repro.hbm.commands import CommandKind
from repro.hbm.system import HBMSystem
from repro.obs import OFF, Obs
from repro.pagemove.address_mapping import PageMoveAddressMapping
from repro.pagemove.cost import MigrationCharge, MigrationCostModel, MigrationMode
from repro.vm.channel_registry import ChannelStatusRegister
from repro.vm.driver import FaultKind, GPUDriver
from repro.vm.tlb import TLB

#: Retries granted to one MIGRATION command waiting for a narrow (stock)
#: crossbar route to free before the command-level replay gives up.
CROSSBAR_RETRY_LIMIT = 256


#: A move's ``(vpn, dst_channel)``, the pair the driver's batch takes.
_VPN_AND_DST = attrgetter("vpn", "dst_channel")


def _round_robin_destinations(kept: List[int], start: int, count: int) -> List[int]:
    """Destination channels for ``count`` pages round-robined over
    ``kept``, continuing from offset ``start``: page ``i`` goes to
    ``kept[(start + i) % len(kept)]``."""
    offset = start % len(kept)
    return list(islice(cycle(kept[offset:] + kept[:offset]), count))


@dataclass
class PageMigration:
    """One page's planned move between channel groups.

    Slotted and not frozen, like :class:`~repro.vm.tlb.TLBEntry`: a
    reallocation plans thousands of moves, and a frozen dataclass costs
    about four times as much to build.  Nothing hashes a move."""

    __slots__ = ("app_id", "vpn", "src_channel", "dst_channel")

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
    #: Pages this execution moved: the eager ones, plus the lazy ones
    #: when it was told to move them.
    pages_moved: int = 0

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
        obs: Obs = OFF,
    ) -> None:
        self.driver = driver
        self.obs = obs
        if obs.on:
            from repro.telemetry import names as _names

            obs.declare("migration")
            self._m_commands = obs.metric(_names.pagemove_commands_total)
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
        with self.obs.span("pagemove.plan"):
            return self._plan_channel_reallocation(
                app_id, new_channels, rebalance_cap
            )

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
            eager.extend(map(PageMigration, repeat(app_id), vpns,
                             repeat(channel), dsts))
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
                        PageMigration(app_id, vpn, donor, single)
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
                    lazy.append(PageMigration(app_id, vpn, donor, dst))
                    need[dst] -= 1
                    surplus -= 1
                    if budget is not None:
                        budget -= 1
        obs = self.obs
        if obs.on:
            obs.emit(
                "migration", "plan", app_id=app_id,
                eager=len(plan.eager), lazy=len(plan.lazy),
                lost_channels=sorted(plan.lost_channels),
                gained_channels=sorted(plan.gained_channels),
            )
        return plan

    # ------------------------------------------------------------------
    # Execution (bookkeeping + analytic cost)
    # ------------------------------------------------------------------
    def execute(self, plan: MigrationPlan, include_lazy: bool = True) -> MigrationReport:
        """Apply a plan: VM state updates plus analytic data-movement cost.

        The plan is validated before anything changes (see
        :meth:`_check_plan`), so a plan that cannot complete is rejected
        whole rather than leaving TLBs, the channel-status register or
        the address space half-migrated.
        """
        with self.obs.span("pagemove.execute"):
            return self._execute(plan, include_lazy)

    def _execute(self, plan: MigrationPlan, include_lazy: bool = True) -> MigrationReport:
        app_id = plan.app_id
        moved, (set_register, marks) = self._check_plan(plan, include_lazy)
        # 1. Flush L1 TLBs (all SMs revalidate through the L2 TLB).
        l1_flushed = sum(tlb.flush() for tlb in self.l1_tlbs)

        # 2. Program the channel-status register with the direction and
        # marks _check_plan chose and checked.
        if set_register is not None:
            set_register(app_id, marks)

        # 3. Update the driver's channel assignment.
        self.driver.reassign_channels(app_id, plan.new_channels)

        # 4. Move pages: eager always, lazy optionally.
        l2_invalidated = self._move_pages(plan, include_lazy, moved)
        lazy_moved = len(plan.lazy) if include_lazy else 0

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
            lazy_charge=self.cost_model.charge(lazy_moved, self.mode),
            l1_entries_flushed=l1_flushed,
            l2_entries_invalidated=l2_invalidated,
            pages_moved=len(moved),
        )
        self.reports.append(report)
        obs = self.obs
        if obs.on:
            direction = self.registry.direction(app_id)
            obs.emit(
                "migration", "execute",
                duration=report.window_cycles, app_id=app_id,
                eager=len(plan.eager), lazy=lazy_moved,
                mode=self.mode.value,
                l1_flushed=l1_flushed, l2_invalidated=l2_invalidated,
                register=direction.name.lower() if direction else "cleared",
                eager_cycles=report.eager_charge.window_cycles,
                lazy_cycles=report.lazy_charge.window_cycles,
            )
        return report

    def _check_plan(
        self, plan: MigrationPlan, include_lazy: bool,
    ) -> Tuple[Set[int], Tuple[Optional[Callable], List[int]]]:
        """Reject a plan that cannot complete, before anything changes;
        return the VPNs it moves and step 2's register write (the
        register's setter, or None, and the channels it marks).

        Refused, in this order:

        * a move of another app's page (the register and the channel
          reassignment act on ``plan.app_id`` only);
        * a page listed twice (its second move would find it gone);
        * a stale move, whose page is not resident in the move's source
          channel (the plan was made against another placement);
        * more pages into a channel than it has free frames.  Frames
          freed by this plan's own moves *out of* a channel do not count,
          which is exact for the eager (vacate) direction and safe for
          rebalance;
        * an app or channels the channel-status register cannot record,
          new channels the driver cannot assign, and a destination
          outside ``plan.new_channels`` — each with the error the
          register or the driver would raise once state had changed.

        Each move's page is looked up here, not by the fault that moves
        it, so a stale plan is refused before any state changes.  Past
        these checks a move is refused only where the driver's frame
        bookkeeping disagrees with the page table.
        """
        app_id = plan.app_id
        driver = self.driver
        driver.assigned_channels(app_id)  # refuses an unregistered app
        lookup = driver.page_tables[app_id].lookup
        moved: Set[int] = set()
        incoming: Dict[int, int] = {}
        for move in chain(plan.eager, plan.lazy) if include_lazy else plan.eager:
            vpn = move.vpn
            if move.app_id != app_id:
                raise MigrationError(
                    f"plan for app {app_id} moves vpn {vpn:#x} of app "
                    f"{move.app_id}"
                )
            if vpn in moved:
                raise MigrationError(
                    f"plan moves vpn {vpn:#x} of app {app_id} twice"
                )
            moved.add(vpn)
            entry = lookup(vpn)
            if entry is None or entry.channel != move.src_channel:
                raise MigrationError(
                    f"stale plan: vpn {vpn:#x} not resident in channel "
                    f"{move.src_channel}"
                )
            dst = move.dst_channel
            incoming[dst] = incoming.get(dst, 0) + 1
        for channel, pages in incoming.items():
            free = driver.free_pages(channel)
            if pages > free:
                raise MigrationError(
                    f"plan needs {pages} frames in channel {channel} but "
                    f"only {free} are free; rejecting before any page moves"
                )
        # Step 2's register write.  The register's status bit is a single
        # bit, so a plan that both loses and gains channels must pick one
        # direction: LOST wins.  Vacating deallocated channels is the
        # coherence-critical work of Section 4.4 — marking the kept set
        # (new_channels) routes every translation landing outside it to a
        # LOST_CHANNEL fault — while the gained-side rebalance proceeds
        # lazily via demand faults without needing register guidance.
        registry = self.registry
        if plan.lost_channels:
            write = registry.set_lost, sorted(plan.new_channels)
        elif plan.gained_channels:
            write = registry.set_gained, sorted(plan.gained_channels)
        else:
            write = None, []
        registry.check(app_id, write[1])
        # What step 3 hands the driver.
        new = driver.check_channels(plan.new_channels)
        for channel in incoming:
            if channel not in new:
                raise AllocationError(
                    f"channel {channel} is not assigned to app {app_id}"
                )
        return moved, write

    def _move_pages(self, plan: MigrationPlan, include_lazy: bool,
                    moved: Set[int]) -> int:
        """Move a checked plan's pages (``moved``, see :meth:`_check_plan`);
        return the L2 TLB entries invalidated.

        Their L2 translations go in one scan of the L2 TLB; then the
        eager and the lazy moves each go to the driver as one batch of
        ``LOST_CHANNEL`` or ``REBALANCE`` faults."""
        app_id = plan.app_id
        invalidated = self.l2_tlb.invalidate_pages(app_id, moved)
        migrate_pages = self.driver.migrate_pages
        migrate_pages(FaultKind.LOST_CHANNEL, app_id,
                      map(_VPN_AND_DST, plan.eager))
        if include_lazy:
            migrate_pages(FaultKind.REBALANCE, app_id,
                          map(_VPN_AND_DST, plan.lazy))
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
        src_channel = coords.channel
        if dst_channel == src_channel:
            raise MigrationError("destination channel equals source channel")
        cfg = system.config
        groups = range(cfg.bank_groups_per_channel)
        bank, row, column_base = coords.bank, coords.row, coords.column_base
        slots = range(self.mapping.columns_per_slice)
        step = cfg.timing.tMIG // 4
        # TSV bundles the copy may not borrow: its own two channels'.
        exclude = (src_channel, dst_channel)
        done = now
        commands_issued = 0
        for stack_idx, stack in enumerate(system.stacks):
            src_ch = stack.channel(src_channel)
            dst_ch = stack.channel(dst_channel)
            # Activate the row in every bank group on both sides (skipping
            # banks whose row is already open from a previous page).
            ready = now
            for group in groups:
                for ch in (src_ch, dst_ch):
                    target = ch.groups[group].bank(bank)
                    if target.is_row_open(row):
                        continue
                    if target.open_row is not None:
                        ready, _ = ch.issue_earliest(
                            CommandKind.PRECHARGE, group, bank, None, None,
                            ready)
                    ready, _ = ch.issue_earliest(
                        CommandKind.ACTIVATE, group, bank, row, None, ready)
            ready += cfg.timing.tRCD
            # PPMM issues wave by wave: one MIGRATION per bank group
            # concurrently, then each group's next column — so only
            # `columns_per_slice` commands serialize per group and the
            # shared command bus sees the waves in chronological order.
            group_time = [ready] * len(groups)
            for slot in slots:
                column = column_base + slot
                for group in groups:
                    t = group_time[group]
                    tsv = stack.find_idle_tsv(t, exclude=exclude, window=0)
                    # Bounded wait for a TSV bundle to free up.
                    waited = 0
                    while tsv is None and waited < 64:
                        t += step
                        waited += 1
                        tsv = stack.find_idle_tsv(t, exclude=exclude, window=0)
                    if tsv is None:
                        raise MigrationError("no idle TSV bundle available")
                    # A narrow (stock) crossbar may reject the route; wait
                    # for it to free and retry — this is exactly the
                    # serialization PageMove's 4x8 crossbar removes.
                    for _ in range(CROSSBAR_RETRY_LIMIT):
                        try:
                            group_time[group] = stack.migrate(
                                src_channel, group, bank, row, column,
                                dst_channel, group, bank, row, column, tsv, t)
                            commands_issued += 1
                            break
                        except ProtocolError:
                            t += step
                    else:  # pragma: no cover - defensive
                        raise RuntimeError(
                            f"crossbar route {src_channel}->{dst_channel} "
                            f"(stack {stack_idx}, bank group {group}) did not "
                            f"free after {CROSSBAR_RETRY_LIMIT} retries; the "
                            "migration replay is not converging"
                        )
            done = max(done, *group_time)
        if self.obs.on:
            self._m_commands.inc(commands_issued)
        return done
