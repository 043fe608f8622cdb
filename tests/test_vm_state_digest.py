"""The VM state after a seeded reallocation sequence, pinned by digest.

A small copy of the benchmark's ``pagemove`` sequence: two apps' demand
faults through four L1 TLBs and a shared L2 TLB, and app 0 reallocated
over the benchmark's channel windows with a capped lazy batch, on both
frame layouts.  The bench fingerprints hash counts only, so these
digests are what catches a drift in frame order (which frame a fault or
a move is handed) or in TLB LRU order.  Every digested value is an int.

Print the digests of the current code with
``PYTHONPATH=src python tests/test_vm_state_digest.py``.
"""

import hashlib
import random

import pytest

from repro.pagemove import InterleavedPageMapping, MigrationEngine, PageMoveAddressMapping
from repro.vm import FaultKind, GPUDriver, TLB

#: App 0's channel windows, as in the benchmark: each step loses one
#: channel and gains one, and the last returns to the starting set.
WINDOWS = ((1, 2, 3, 4), (2, 3, 4, 5), (1, 2, 3, 4), (0, 1, 2, 3))

#: Per layout: (digest, [(eager, lazy, L1 flushed, L2 invalidated) per
#: reallocation]).  Both layouts move the same pages; only frames differ.
REPORTS = [(20, 15, 160, 35), (40, 30, 204, 55), (60, 40, 213, 63),
           (80, 40, 206, 64)]
EXPECTED = {
    "contiguous": ("162ea36129780ca7", REPORTS),
    "interleaved": ("6626d64da133a134", REPORTS),
}


def _tlb_state(tlb):
    """Every entry in set order, each set least recently used first."""
    return [(app_id, vpn, e.rpn, e.channel)
            for ways in tlb._sets for (app_id, vpn), e in ways.items()]


def _vm_state(driver, engine, l1_tlbs):
    channels = range(driver.num_channel_groups)
    return (
        [[(vpn, e.rpn, e.channel, int(e.valid))
          for vpn, e in driver.page_tables[app].entries()] for app in (0, 1)],
        [driver.free_pages(c) for c in channels],
        [[driver.resident_pages(app, c) for c in channels] for app in (0, 1)],
        [_tlb_state(tlb) for tlb in (engine.l2_tlb, *l1_tlbs)],
        [engine.registry.encoded_bits(app) for app in (0, 1)],
        driver.faults,
    )


def run_sequence(layout, seed=0, faults_per_app=400, rebalance_cap=40):
    """Run the sequence; return (digest, per-reallocation report counts)."""
    if layout == "interleaved":
        driver = GPUDriver(
            pages_per_channel=512,
            mapping=InterleavedPageMapping(PageMoveAddressMapping()))
    else:
        driver = GPUDriver(num_channel_groups=8, pages_per_channel=512)
    driver.register_app(0, channels=WINDOWS[-1])
    driver.register_app(1, channels=(6, 7))
    l1_tlbs = [TLB.l1(f"l1tlb{i}") for i in range(4)]
    engine = MigrationEngine(driver, l2_tlb=TLB.l2(), l1_tlbs=l1_tlbs)
    l2_tlb = engine.l2_tlb

    rng = random.Random(seed)
    streams = []
    for base in (0, 0x100000):
        vpns = [base + i for i in range(faults_per_app)]
        rng.shuffle(vpns)
        accesses = []
        for i, vpn in enumerate(vpns):
            accesses.append(vpn)
            accesses.append(vpns[rng.randrange(max(0, i - 63), i + 1)])
        streams.append(accesses)
    accesses = [(app, vpn) for pair in zip(*streams)
                for app, vpn in enumerate(pair)]

    def access(app, vpn):
        l1 = l1_tlbs[vpn % len(l1_tlbs)]
        if l1.lookup(app, vpn) is not None:
            return
        entry = l2_tlb.lookup(app, vpn)
        if entry is None:
            pte = driver.page_tables[app].lookup(vpn)
            if pte is None:
                fault = driver.handle_fault(FaultKind.DEMAND, app, vpn)
                rpn, channel = fault.rpn, fault.channel
            else:
                rpn, channel = pte.rpn, pte.channel
            l2_tlb.fill(app, vpn, rpn, channel)
        else:
            rpn, channel = entry.rpn, entry.channel
        l1.fill(app, vpn, rpn, channel)

    # Demand faults before each reallocation and after the last one.
    chunk = -(-len(accesses) // (len(WINDOWS) + 1))
    states, reports = [], []
    for step in range(len(WINDOWS) + 1):
        for app, vpn in accesses[step * chunk:(step + 1) * chunk]:
            access(app, vpn)
        if step < len(WINDOWS):
            plan = engine.plan_channel_reallocation(
                0, WINDOWS[step], rebalance_cap=rebalance_cap)
            report = engine.execute(plan)
            reports.append((len(plan.eager), len(plan.lazy),
                            report.l1_entries_flushed,
                            report.l2_entries_invalidated))
        states.append(_vm_state(driver, engine, l1_tlbs))
    blob = repr((states, reports)).encode()
    return hashlib.sha256(blob).hexdigest()[:16], reports


@pytest.mark.parametrize("layout", sorted(EXPECTED))
def test_vm_state_after_reallocations_pinned(layout):
    digest, reports = run_sequence(layout)
    assert (digest, reports) == EXPECTED[layout]


if __name__ == "__main__":
    for name in sorted(EXPECTED):
        print(name, run_sequence(name))
