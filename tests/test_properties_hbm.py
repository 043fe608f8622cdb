"""Property-based fuzzing of the command-level HBM channel: random
command sequences never corrupt timing state — every issue either
succeeds at a legal cycle or raises ProtocolError, and time claims are
monotone per resource."""

from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.hbm import Channel, HBMConfig, activate, migration, precharge, read, write
from tests.strategies import SLOW_SETTINGS, STANDARD_SETTINGS

CONFIG = HBMConfig()

COMMANDS = st.lists(
    st.tuples(
        st.sampled_from(["ACT", "PRE", "RD", "WR", "MIG"]),
        st.integers(min_value=0, max_value=3),   # bank group
        st.integers(min_value=0, max_value=3),   # bank
        st.integers(min_value=0, max_value=31),  # row
        st.integers(min_value=0, max_value=15),  # column
    ),
    max_size=60,
)


def build(kind, bg, bank, row, col):
    if kind == "ACT":
        return activate(bg, bank, row)
    if kind == "PRE":
        return precharge(bg, bank)
    if kind == "RD":
        return read(bg, bank, col)
    if kind == "WR":
        return write(bg, bank, col)
    return migration(bg, bank, row, col, dest_channel=1, dest_bank_group=bg,
                     dest_bank=bank, dest_row=row, dest_column=col,
                     tsv_index=2)


@STANDARD_SETTINGS
@given(COMMANDS)
def test_random_sequences_at_legal_times_always_issue(ops):
    """Issuing every command at its own earliest_issue time never raises:
    the schedule oracle and the issue validator agree."""
    channel = Channel(CONFIG, 0)
    now = 0
    for op in ops:
        cmd = build(*op)
        at = channel.earliest_issue(cmd, now)
        try:
            done = channel.issue(cmd, at)
        except ProtocolError as error:
            # Only *protocol-state* errors are legal here (e.g. a column
            # command to a bank with no open row, or double-activate);
            # timing errors would mean earliest_issue lied.
            assert "earliest legal cycle" not in str(error), error
            continue
        assert done >= at
        now = at


@STANDARD_SETTINGS
@given(COMMANDS, st.integers(min_value=0, max_value=5))
def test_issuing_too_early_raises_not_corrupts(ops, hurry):
    """Issuing ``hurry`` cycles before the legal time either still is
    legal (hurry=0) or raises ProtocolError and leaves the channel usable."""
    channel = Channel(CONFIG, 0)
    now = 0
    for op in ops:
        cmd = build(*op)
        at = channel.earliest_issue(cmd, now)
        early = max(0, at - hurry)
        try:
            channel.issue(cmd, early)
            now = early
        except ProtocolError:
            # The channel must remain usable: the same command at its
            # legal time (recomputed) either issues or fails for
            # protocol-state reasons.
            retry_at = channel.earliest_issue(cmd, now)
            try:
                channel.issue(cmd, retry_at)
                now = retry_at
            except ProtocolError as error:
                assert "earliest legal cycle" not in str(error), error


@SLOW_SETTINGS
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                          st.integers(min_value=0, max_value=15)),
                min_size=1, max_size=40))
def test_streaming_reads_complete_in_order_per_bank_group(accesses):
    """Reads issued in order to one open row complete monotonically."""
    channel = Channel(CONFIG, 0)
    now = 0
    opened = set()
    completions = []
    for bg, col in accesses:
        if bg not in opened:
            cmd = activate(bg, 0, 1)
            at = channel.earliest_issue(cmd, now)
            now = at
            channel.issue(cmd, at)
            opened.add(bg)
        cmd = read(bg, 0, col)
        at = channel.earliest_issue(cmd, now)
        done = channel.issue(cmd, at)
        completions.append(done)
        now = at
    assert completions == sorted(completions)


@STANDARD_SETTINGS
@given(COMMANDS, st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=400))
def test_earliest_issue_is_max_of_now_and_a_fixed_cycle(ops, bg, bank, now):
    """For every command kind, after any history, the earliest legal
    cycle at or after ``now`` is ``max(now, C)`` for a C that does not
    depend on ``now``: the channel may compute C once per command."""
    channel = Channel(CONFIG, 0)
    at = 0
    for op in ops:
        cmd = build(*op)
        issue_at = channel.earliest_issue(cmd, at)
        try:
            channel.issue(cmd, issue_at)
        except ProtocolError:
            continue
        at = issue_at
    for kind in ("ACT", "PRE", "RD", "WR", "MIG"):
        cmd = build(kind, bg, bank, 1, 0)
        assert channel.earliest_issue(cmd, now) == max(
            now, channel.earliest_issue(cmd, 0))
