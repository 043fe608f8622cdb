"""An independent Table 1 timing checker for the command-level HBM model.

:class:`Table1Checker` reads only :class:`~repro.hbm.config.HBMTiming` and
replays a log of issued commands; it never calls ``Channel`` or ``Bank``,
so a wrong constant or constraint in the model cannot hide behind the
model's own scheduler.  A spy on :meth:`Channel.apply`, the one method
that changes channel state, records the log while three kinds of traffic
run:

* seeded FR-FCFS controller traffic shaped like the benchmark's ``hbm``
  ops;
* page copies through ``MigrationEngine.execute_page_on_hardware``, shaped
  like its ``hw`` ops;
* Hypothesis command sequences that mix MIGRATION with READ/WRITE on one
  channel.

The seeded logs are also pinned command by command (:func:`log_digest`),
so a change that reorders commands but keeps every total is caught.

Refresh is not covered: it is off by default and its precharges do not go
through ``Channel``.
"""

import hashlib
import random
from collections import defaultdict, namedtuple
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.hbm import (
    Channel, CommandKind, HBMConfig, HBMSystem, HBMTiming, MemoryController,
    MemoryRequest, RequestKind, activate, migration, precharge, read, write,
)
from repro.hbm.crossbar import BankGroupCrossbar
from repro.pagemove import InterleavedPageMapping, PageMoveAddressMapping
from repro.pagemove.engine import MigrationEngine
from repro.vm import GPUDriver
from tests.strategies import SLOW_SETTINGS

ACT, PRE, RD, WR, MIG = (CommandKind.ACTIVATE, CommandKind.PRECHARGE,
                         CommandKind.READ, CommandKind.WRITE,
                         CommandKind.MIGRATION)

#: One applied command.  ``done`` is the completion cycle ``apply``
#: returned.
Entry = namedtuple("Entry", "at channel kind bank_group bank row column done")


class Table1Violation(AssertionError):
    pass


class _BankState:
    def __init__(self):
        self.open_row = None
        self.activate = None
        self.precharge = None
        self.read = None
        self.write_end = None
        self.migration_end = None


class Table1Checker:
    """Replays a command log against Table 1, independently of the model.

    Per bank: tRC, tRCD, tRAS, tRP, tRTP; write recovery as the model
    defines it (``tRP // 2`` after a write burst ends); no PRECHARGE
    before the bank's last MIGRATION copy completes (tMIG); ACTIVATE only
    to a precharged bank; column commands only to the open row.
    Per channel: tRRDl/tRRDs, at most four ACTIVATEs in any tFAW window,
    tCCDl/tCCDs, tWTRl/tWTRs, non-overlapping READ/WRITE bursts on the data
    bus, one command per command-bus cycle with MIGRATION taking two
    (Section 4.3).
    Per bank group: non-overlapping internal-bus intervals, a READ/WRITE
    holding the bus for its burst and a MIGRATION for tMIG (Section 4.5).

    tWTR is measured from the channel's most recent WRITE, the rule the
    model implements; JEDEC also spaces a READ tWTRl from an earlier WRITE
    to its bank group when a WRITE to another group came in between.
    """

    def __init__(self, timing: HBMTiming):
        self.t = timing

    def check(self, log):
        by_channel = defaultdict(list)
        for entry in log:
            by_channel[id(entry.channel)].append(entry)
        for entries in by_channel.values():
            self._check_channel(entries)
        return len(log)

    def _fail(self, entry, what):
        raise Table1Violation(f"{what}: {entry.kind.value} at {entry.at} "
                              f"bg{entry.bank_group} b{entry.bank} "
                              f"(row {entry.row}, column {entry.column})")

    def _at_least(self, entry, earliest, what):
        if earliest is not None and entry.at < earliest:
            self._fail(entry, f"{what} needs cycle >= {earliest}")

    def _check_channel(self, entries):
        t = self.t
        banks = defaultdict(_BankState)
        command_bus_free = 0
        activates = []
        last_activate_in_group = {}
        last_column = None
        last_column_in_group = {}
        last_write = None
        data_bus = []
        group_bus = defaultdict(list)

        def plus(cycle, gap):
            return None if cycle is None else cycle + gap

        for e in entries:
            cycles = 2 if e.kind is MIG else 1
            self._at_least(e, command_bus_free, "command bus")
            command_bus_free = e.at + cycles
            bank = banks[(e.bank_group, e.bank)]

            if e.kind is ACT:
                if bank.open_row is not None:
                    self._fail(e, "ACTIVATE to a bank with an open row")
                self._at_least(e, plus(bank.activate, t.tRC), "tRC")
                self._at_least(e, plus(bank.precharge, t.tRP), "tRP")
                if activates:
                    prev_at, prev_group = activates[-1]
                    gap = t.tRRDl if prev_group == e.bank_group else t.tRRDs
                    self._at_least(e, prev_at + gap, "tRRD")
                self._at_least(e, plus(last_activate_in_group.get(
                    e.bank_group), t.tRRDl), "tRRDl")
                if len(activates) >= 4:
                    self._at_least(e, activates[-4][0] + t.tFAW, "tFAW")
                activates.append((e.at, e.bank_group))
                last_activate_in_group[e.bank_group] = e.at
                bank.open_row, bank.activate = e.row, e.at
                expected_done = e.at + t.tRCD

            elif e.kind is PRE:
                self._at_least(e, plus(bank.activate, t.tRAS), "tRAS")
                self._at_least(e, plus(bank.read, t.tRTP), "tRTP")
                self._at_least(e, plus(bank.write_end, t.tRP // 2),
                               "write recovery")
                self._at_least(e, bank.migration_end, "MIGRATION copy")
                bank.open_row, bank.precharge = None, e.at
                expected_done = e.at + t.tRP

            else:
                if bank.open_row is None:
                    self._fail(e, "column command to a bank with no open row")
                if e.row is not None and e.row != bank.open_row:
                    self._fail(e, f"column command to row {e.row} while row "
                                  f"{bank.open_row} is open")
                self._at_least(e, bank.activate + t.tRCD, "tRCD")
                if last_column is not None:
                    prev_at, prev_group = last_column
                    gap = t.tCCDl if prev_group == e.bank_group else t.tCCDs
                    self._at_least(e, prev_at + gap, "tCCD")
                self._at_least(e, plus(last_column_in_group.get(
                    e.bank_group), t.tCCDl), "tCCDl")
                last_column = (e.at, e.bank_group)
                last_column_in_group[e.bank_group] = e.at
                if e.kind is MIG:
                    busy = (e.at, e.at + t.tMIG)
                else:
                    lead = t.tCL if e.kind is RD else t.tWL
                    busy = (e.at + lead, e.at + lead + t.tBL)
                    data_bus.append(busy + (e,))
                group_bus[e.bank_group].append(busy + (e,))
                if e.kind is RD:
                    if last_write is not None:
                        end, group = last_write
                        gap = t.tWTRl if group == e.bank_group else t.tWTRs
                        self._at_least(e, end + gap, "tWTR")
                    bank.read = e.at
                elif e.kind is WR:
                    last_write = (busy[1], e.bank_group)
                    bank.write_end = busy[1]
                else:
                    bank.migration_end = busy[1]
                expected_done = busy[1]

            if e.done != expected_done:
                self._fail(e, f"completes at {e.done}, Table 1 says "
                              f"{expected_done}")

        self._no_overlap(data_bus, "data bus")
        for group, intervals in group_bus.items():
            self._no_overlap(intervals, f"bank group {group} internal bus")

    def _no_overlap(self, intervals, what):
        intervals = sorted(intervals, key=lambda i: i[:2])
        for (_, end, first), (start, _, second) in zip(intervals,
                                                        intervals[1:]):
            if start < end:
                self._fail(second, f"{what} still busy until {end} with "
                                   f"{first.kind.value} at {first.at}")


@contextmanager
def recorded_commands():
    """Log every command any channel applies while the block runs."""
    log = []
    original = Channel.apply

    def spy(self, kind, bank_group, bank, row, column, at, dest=False):
        done = original(self, kind, bank_group, bank, row, column, at, dest)
        log.append(Entry(at, self, kind, bank_group, bank, row, column, done))
        return done

    with mock.patch.object(Channel, "apply", spy):
        yield log


def log_digest(log):
    """``(entries, SHA-256 prefix)`` of a command log, each entry as ints:
    (at, channel ordinal in order of first appearance, kind ordinal,
    bank_group, bank, row or -1, column or -1, done), so the digest is the
    same on every Python."""
    kinds = list(CommandKind)
    ordinals = {}
    rows = [(e.at, ordinals.setdefault(id(e.channel), len(ordinals)),
             kinds.index(e.kind), e.bank_group, e.bank,
             -1 if e.row is None else e.row,
             -1 if e.column is None else e.column, e.done)
            for e in log]
    return len(rows), hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


#: The seeded logs below, pinned.  A change to the HBM model that should
#: not move timing keeps them; one that should re-records them on purpose
#: and says so.
CONTROLLER_LOGS = {
    0: (6734, "76d4b1d6adf4078e"),
    1: (6706, "10b57bde2df3d79a"),
    2: (6714, "bd4090ed9947cd23"),
}
#: Keyed by (seed, crossbar width).
PAGE_COPY_LOGS = {
    (0, 8): (1264, "708185cf6a757c02"),
    (0, 1): (1264, "ff3c7bf0af60c6df"),
    (1, 8): (1232, "583d195eb263ed59"),
    (1, 1): (1232, "80ef76d775dc13c9"),
}

TABLE1 = HBMTiming()
#: Table 1 with tCCDl above the burst length.  Under Table 1 itself tCCDl
#: never binds: READ/WRITE bursts are already tBL apart on the data bus
#: and a MIGRATION holds the command bus for two cycles.
STRETCHED = HBMTiming(tCCDl=8)


# ----------------------------------------------------------------------
# Seeded traffic shaped like the benchmark's ops
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_controller_traffic_respects_table1(seed):
    """FR-FCFS waves of 48 requests, 30% writes, over 4 bank groups x
    4 banks x 64 rows, each wave arriving at the controller's clock."""
    rng = random.Random(seed)
    controller = MemoryController(HBMConfig())
    with recorded_commands() as log:
        for _ in range(48):
            for _ in range(48):
                controller.enqueue(MemoryRequest(
                    kind=RequestKind.WRITE if rng.random() < 0.3
                    else RequestKind.READ,
                    bank_group=rng.randrange(4), bank=rng.randrange(4),
                    row=rng.randrange(64), column=rng.randrange(32),
                    arrival=controller.now))
            controller.drain()
    assert controller.stats.served == 48 * 48
    assert Table1Checker(TABLE1).check(log) > 2 * 48 * 48
    assert log_digest(log) == CONTROLLER_LOGS[seed]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("width", [8, 1])
def test_page_copies_respect_table1(seed, width):
    """Back-to-back hardware page copies between random channels, each
    starting when the previous one completes."""
    rng = random.Random(seed)
    mapping = PageMoveAddressMapping()
    engine = MigrationEngine(
        GPUDriver(pages_per_channel=16, mapping=InterleavedPageMapping(mapping)),
        mapping=mapping)
    system = HBMSystem()
    config = system.config
    if width != config.channels_per_stack:
        for stack in system.stacks:
            stack.crossbars = [
                BankGroupCrossbar(config.bank_groups_per_channel,
                                  config.channels_per_stack, width=width)
                for _ in range(config.channels_per_stack)]
    frames = mapping.total_bytes // mapping.page_size
    now = 0
    with recorded_commands() as log:
        for _ in range(12):
            src = rng.randrange(frames)
            src_channel = mapping.page_coordinates(src).channel
            dst = rng.choice([c for c in range(config.channels_per_stack)
                              if c != src_channel])
            now = engine.execute_page_on_hardware(system, src, dst, now=now)
    migrations = sum(1 for e in log if e.kind is MIG)
    assert migrations == 2 * 12 * mapping.migrations_per_page
    Table1Checker(TABLE1).check(log)
    assert log_digest(log) == PAGE_COPY_LOGS[seed, width]


# ----------------------------------------------------------------------
# Hypothesis: MIGRATION mixed with READ/WRITE on one channel
# ----------------------------------------------------------------------
OPS = st.lists(
    st.tuples(
        st.sampled_from(["ACT", "PRE", "RD", "WR", "MIG"]),
        st.integers(min_value=0, max_value=1),   # bank group
        st.integers(min_value=0, max_value=3),   # bank
        st.integers(min_value=0, max_value=3),   # row
        st.integers(min_value=0, max_value=15),  # column
        st.sampled_from([0, 0, 0, 1, 20]),       # cycles to wait first
    ),
    max_size=40,
)


def command(kind, bank_group, bank, row, column):
    if kind == "PRE":
        return precharge(bank_group, bank)
    if kind == "RD":
        return read(bank_group, bank, column)
    if kind == "WR":
        return write(bank_group, bank, column)
    return migration(bank_group, bank, row, column, dest_channel=1,
                     dest_bank_group=bank_group, dest_bank=bank,
                     dest_row=row, dest_column=column, tsv_index=2)


def drive(channel, ops):
    """Issue each op at its earliest legal cycle.  An ACTIVATE or column
    op first opens its row (precharging another open row), so every op
    but an ACTIVATE of the open row reaches the channel."""
    now = 0
    for kind, bank_group, bank, row, column, wait in ops:
        now += wait
        open_row = channel.open_row(bank_group, bank)
        steps = []
        if kind != "PRE" and open_row != row:
            if open_row is not None:
                steps.append(precharge(bank_group, bank))
            steps.append(activate(bank_group, bank, row))
        if kind != "ACT":
            steps.append(command(kind, bank_group, bank, row, column))
        for cmd in steps:
            now = channel.earliest_issue(cmd, now)
            channel.issue(cmd, now)


@SLOW_SETTINGS
@given(OPS, st.sampled_from([TABLE1, STRETCHED]))
# A READ while a MIGRATION holds the bank group's bus.
@example([("MIG", 0, 0, 5, 0, 0), ("RD", 0, 1, 7, 0, 0)], TABLE1)
# A PRECHARGE of the bank a MIGRATION still copies from.
@example([("MIG", 0, 0, 5, 0, 0), ("PRE", 0, 0, 0, 0, 0)], TABLE1)
# Five back-to-back ACTIVATEs: the fifth waits for tFAW.
@example([("ACT", g, b, 1, 0, 0) for b in range(3) for g in (0, 1)][:5],
         TABLE1)
# Two ACTIVATEs in one bank group: tRRDl.
@example([("ACT", 0, 0, 1, 0, 0), ("ACT", 0, 1, 1, 0, 0)], TABLE1)
# Back-to-back READs in one bank group with tCCDl above tBL.
@example([("RD", 0, 0, 1, 0, 0), ("RD", 0, 0, 1, 1, 0)], STRETCHED)
# A READ right after a WRITE to the same bank group: tWTRl.
@example([("WR", 0, 0, 1, 0, 0), ("RD", 0, 0, 1, 1, 0)], TABLE1)
# READs in two bank groups sharing the data bus.
@example([("ACT", 0, 0, 1, 0, 0), ("ACT", 1, 0, 1, 0, 0),
          ("RD", 0, 0, 1, 0, 20), ("RD", 1, 0, 1, 0, 0)], TABLE1)
def test_mixed_migration_and_column_traffic_respects_table1(ops, timing):
    channel = Channel(HBMConfig(timing=timing), 0)
    with recorded_commands() as log:
        drive(channel, ops)
    Table1Checker(timing).check(log)


# ----------------------------------------------------------------------
# The checker itself
# ----------------------------------------------------------------------
class TestCheckerCatches:
    """Hand-written logs that break one rule each."""

    channel = object()

    def entry(self, at, kind, bank_group=0, bank=0, row=1, column=0,
              done=None):
        t = TABLE1
        if done is None:
            done = at + {ACT: t.tRCD, PRE: t.tRP, RD: t.tCL + t.tBL,
                         WR: t.tWL + t.tBL, MIG: t.tMIG}[kind]
        return Entry(at, self.channel, kind, bank_group, bank, row, column,
                     done)

    def check(self, *entries):
        return Table1Checker(TABLE1).check(list(entries))

    def test_legal_log_passes(self):
        assert self.check(self.entry(0, ACT), self.entry(14, RD),
                          self.entry(33, PRE), self.entry(47, ACT)) == 4

    @pytest.mark.parametrize("entries, match", [
        ([(0, ACT), (13, RD)], "tRCD"),
        ([(0, ACT), (32, PRE)], "tRAS"),
        ([(0, ACT), (40, PRE), (50, ACT)], "tRP"),
        ([(0, ACT), (14, RD), (35, PRE), (40, ACT, 0, 0, 2)], "tRC"),
        ([(0, ACT), (40, RD), (43, PRE)], "tRTP"),
        ([(0, ACT), (40, WR), (52, PRE)], "write recovery"),
        ([(0, ACT), (0, ACT, 1)], "command bus"),
        ([(0, ACT), (5, ACT, 0, 1)], "tRRD"),
        ([(0, ACT), (3, ACT, 1)], "tRRD"),
        ([(0, ACT, 0, 0), (4, ACT, 1, 0), (8, ACT, 0, 1), (12, ACT, 1, 1),
          (16, ACT, 0, 2)], "tFAW"),
        ([(0, ACT), (20, ACT, 1), (40, RD), (41, RD, 1)], "data bus"),
        ([(0, ACT), (14, RD), (15, RD)], "tCCD"),
        ([(0, ACT), (14, WR), (26, RD)], "tWTR"),
        ([(0, ACT), (14, MIG), (30, RD)], "internal bus"),
        ([(0, ACT), (14, MIG), (15, MIG, 1)], "command bus"),
        ([(0, RD)], "no open row"),
        ([(0, ACT), (14, RD, 0, 0, 2)], "row 2 while row 1 is open"),
        ([(0, ACT), (14, ACT)], "open row"),
        ([(0, ACT), (14, MIG), (40, PRE)], "MIGRATION copy"),
    ])
    def test_violation_detected(self, entries, match):
        log = [self.entry(*e) for e in entries]
        with pytest.raises(Table1Violation, match=match):
            self.check(*log)

    def test_wrong_completion_detected(self):
        with pytest.raises(Table1Violation, match="Table 1 says 64"):
            self.check(self.entry(0, ACT), self.entry(14, MIG, done=60))

    def test_channels_checked_separately(self):
        other = self.entry(0, ACT)._replace(channel=object())
        assert self.check(self.entry(0, ACT), other) == 2
