"""The benchmark's workloads: seeded inputs, timed ops, checked outputs.

Each workload function runs its set-up (input generation and object
construction) and returns a :class:`Workload` whose ``ops`` the pass
runner times one by one, back to back.  An op's ``output`` turns its
result into a small deterministic dict whose fingerprint is compared with
the committed golden files; ``check`` tests the seed-independent
invariants.  Neither runs inside the timed region.

Sizes are keyword arguments so the harness tests can build miniature
versions; the defaults are the benchmark's.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

WORKLOADS = ("paper", "pagemove", "fleet_sparse", "fleet_dense")

#: The paper's closed-system horizon (Section 5).
HORIZON = 25_000_000
#: Section 3.3 epoch-length sensitivity (S3).
EPOCHS = (1_000_000, 2_500_000, 5_000_000, 12_500_000)
#: Figure 16's QoS target and the whole-run slack its bench allows.
QOS_NP = 0.75
QOS_SLACK = 0.97


@dataclass
class Op:
    """One timed simulation call.

    ``before`` (optional) snapshots state the check needs; it runs
    untimed just before ``call``.  ``check(result, snapshot)`` returns a
    failure reason or None.
    """

    label: str
    call: Callable[[], Any]
    output: Callable[[Any], Dict[str, Any]]
    check: Callable[[Any, Any], Optional[str]] = lambda result, snap: None
    before: Optional[Callable[[], Any]] = None


@dataclass
class Workload:
    name: str
    ops: List[Op]
    #: Cross-op checks over all results: {op index: failure reason}.
    finish: Callable[[List[Any]], Dict[int, str]] = lambda results: {}
    #: Deterministic summary printed after the pass (fidelity table).
    report: Callable[[List[Any]], List[Dict[str, Any]]] = lambda results: []
    close: Callable[[], None] = lambda: None
    #: Seeded inputs, exposed so tests can see what the seed changed.
    inputs: Dict[str, Any] = field(default_factory=dict)


def fingerprint(output: Dict[str, Any]) -> str:
    text = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def build(name: str, seed: int, **sizes) -> Workload:
    factories = {
        "paper": paper,
        "pagemove": pagemove,
        "fleet_sparse": fleet_sparse,
        "fleet_dense": fleet_dense,
    }
    if name not in factories:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return factories[name](seed, **sizes)


# ----------------------------------------------------------------------
# paper: the closed-system figures plus a few open-system streams
# ----------------------------------------------------------------------
def _system_output(result) -> Dict[str, Any]:
    out = {
        "stp": round(result.stp, 9),
        "antt": round(result.antt, 9),
        "repartitions": result.repartitions,
    }
    for key in ("arrivals", "admissions", "departures"):
        if hasattr(result, key):
            out[key] = getattr(result, key)
    return out


def _system_check(result, _snap) -> Optional[str]:
    if not (math.isfinite(result.stp) and result.stp > 0):
        return f"STP {result.stp!r} is not a positive number"
    if hasattr(result, "admissions"):
        if not result.departures <= result.admissions <= result.arrivals:
            return (f"open system: departures {result.departures} <= "
                    f"admissions {result.admissions} <= arrivals "
                    f"{result.arrivals} does not hold")
    return None


def paper(seed: int, *, pairs: Optional[Sequence[Tuple[str, str]]] = None,
          policies: Optional[Sequence[str]] = None, four: int = 50,
          eight: int = 200, het_pairs: Optional[int] = None,
          epochs: Sequence[int] = EPOCHS, streams: int = 8,
          horizon: int = HORIZON) -> Workload:
    """F10/F11/F13 sweep, F14 mixes, F16 QoS, S3 epochs, open streams."""
    from repro.core.qos import QoSTarget
    from repro.core.system import MultitaskSystem
    from repro.exec import SweepExecutor, SweepJob
    from repro.exec.registry import registered_policies
    from repro.policies import BPPolicy, MPSPolicy, UGPUPolicy
    from repro.workloads import (
        all_pairs,
        build_mix,
        eight_program_mixes,
        four_program_mixes,
        heterogeneous_pairs,
        poisson_arrivals,
    )

    pairs = list(pairs) if pairs is not None else all_pairs()
    policies = list(policies) if policies is not None else registered_policies()
    het = heterogeneous_pairs()
    het = het[:het_pairs] if het_pairs is not None else het
    fours = [m.abbrs for m in four_program_mixes(four, seed=2025 + seed)]
    eights = [m.abbrs for m in eight_program_mixes(eight, seed=2025 + seed)]
    schedules = [poisson_arrivals(2_000_000, horizon, seed=streams * seed + i)
                 for i in range(streams)]
    executor = SweepExecutor(jobs=1, cache=None)

    ops: List[Op] = []
    groups: Dict[Tuple, int] = {}

    def add(key: Tuple, call: Callable[[], Any]) -> None:
        groups[key] = len(ops)
        ops.append(Op(":".join(str(k) for k in key), call, _system_output,
                      _system_check))

    def closed(mix, policy_factory, **runner):
        def call():
            apps = build_mix(list(mix)).applications
            system = MultitaskSystem(apps, policy=policy_factory(), **runner)
            return system.run(horizon, mix_name="_".join(mix))
        return call

    for policy in policies:
        for pair in pairs:
            job = SweepJob.build(policy, pair, horizon)
            add(("F10", policy, "_".join(pair)),
                lambda job=job: executor.run([job])[0])
    for size, mixes in (("4", fours), ("8", eights)):
        for index, mix in enumerate(mixes):
            add(("F14", size, index, "bp"), closed(mix, BPPolicy))
            add(("F14", size, index, "ugpu"), closed(mix, UGPUPolicy))
    for pair in het:
        name = "_".join(pair)
        add(("F16", "ugpu", name), closed(
            pair, lambda: UGPUPolicy(qos=QoSTarget(app_id=1, target_np=QOS_NP))))
        add(("F16", "mps", name), closed(
            pair, lambda: MPSPolicy(sm_assignment={1: 60, 0: 20})))
        # QoS-aware BP gives the high-priority (compute-bound) app the big
        # partition; it must come first in the mix for qos_big_first.
        add(("F16", "bp", name), closed(
            (pair[1], pair[0]), lambda: BPPolicy(qos_big_first=True)))
    for epoch in epochs:
        for pair in het:
            add(("S3", epoch, "_".join(pair)),
                closed(pair, UGPUPolicy, epoch_cycles=epoch))
    for index, schedule in enumerate(schedules):
        def open_run(schedule=schedule, index=index):
            system = MultitaskSystem([], policy=UGPUPolicy(), arrivals=schedule)
            return system.run(horizon, mix_name=f"open{index}")
        add(("open", index), open_run)

    def report(results: List[Any]) -> List[Dict[str, Any]]:
        return _paper_fidelity(results, groups, het)

    return Workload(
        "paper", ops, report=report,
        inputs={"four": fours, "eight": eights,
                "arrival_cycles": [[e.cycle for e in s] for s in schedules]},
    )


def _gain(new, base) -> float:
    return statistics.fmean(n.stp / b.stp - 1 for n, b in zip(new, base))


def _antt_gain(new, base) -> float:
    return statistics.fmean(b.antt / n.antt - 1 for n, b in zip(new, base))


def _paper_fidelity(results, groups, het) -> List[Dict[str, Any]]:
    """Headline reproduced values beside the paper's and EXPERIMENTS.md's."""
    def pick(*prefix) -> List[Any]:
        return [results[i] for key, i in groups.items()
                if key[:len(prefix)] == prefix]

    def f10(policy) -> List[Any]:
        return [results[groups[key]] for key in
                (("F10", policy, "_".join(p)) for p in het) if key in groups]

    rows: List[Dict[str, Any]] = []

    def row(name, value, paper, measured, unit="pct"):
        rows.append({"name": name, "value": value, "unit": unit,
                     "paper": paper, "experiments": measured})

    bp, ugpu = f10("bp"), f10("ugpu")
    if bp and len(ugpu) == len(bp):
        row("F10a UGPU mean STP vs BP", _gain(ugpu, bp), "+34.3%", "+23.5%")
        row("F10a UGPU max STP gain",
            max(u.stp / b.stp - 1 for u, b in zip(ugpu, bp)), "+56.7%", "+36.1%")
        row("F10b UGPU mean ANTT vs BP", _antt_gain(ugpu, bp), "+46.7%", "+22.5%")
        offline = f10("ugpu-offline")
        if len(offline) == len(ugpu):
            row("F10a online below offline", 1 - statistics.fmean(
                u.stp / o.stp for u, o in zip(ugpu, offline)), "12.1%", "7.4%")
        for policy, paper_value, measured in (
                ("ugpu-ori", "-16.8%", "-19.3%"),
                ("ugpu-soft", "(between)", "+4.4%")):
            series = f10(policy)
            if len(series) == len(bp):
                row(f"F11 {policy} vs BP", _gain(series, bp), paper_value, measured)
        fractions = [f for r in ugpu for f in r.migration_fractions()]
        row("F12a mean realloc fraction", statistics.fmean(fractions),
            "8.9%", "5.5%")
        row("F12a worst realloc fraction", max(fractions), "19.5%", "20.0%")
        cd = f10("cd-search")
        if len(cd) == len(bp):
            row("F13 CD-Search vs BP", _gain(cd, bp), "+11.2%", "+14.5%")
            row("F13 UGPU vs CD-Search STP", _gain(ugpu, cd), "+22.4%", "+7.9%")
            row("F13 UGPU vs CD-Search ANTT", _antt_gain(ugpu, cd),
                "+43.6%", "+9.2%")
    for size, paper_stp, paper_antt, ours_stp, ours_antt in (
            ("4", "+38.3%", "+101.8%", "+24.2% (20 mixes)", "+22.2% (20 mixes)"),
            ("8", "+30.3%", "+89.3%", "+10.8% (20 mixes)", "+5.6% (20 mixes)")):
        runs = pick("F14", size)
        base, new = runs[0::2], runs[1::2]
        if base:
            row(f"F14 {size}-program STP", _gain(new, base), paper_stp, ours_stp)
            row(f"F14 {size}-program ANTT", _antt_gain(new, base),
                paper_antt, ours_antt)
    for policy, paper_value, measured in (("mps", "some", "20/50"),
                                          ("bp", "0", "0/50"),
                                          ("ugpu", "0", "0/50")):
        runs = pick("F16", policy)
        # The high-priority (compute-bound) app leads the mix only for BP.
        high_id = 0 if policy == "bp" else 1
        if runs:
            high = [next(r for r in res.runs if r.app_id == high_id)
                    for res in runs]
            row(f"F16 {policy} QoS violations",
                sum(1 for r in high if r.normalized_progress < QOS_NP * QOS_SLACK),
                paper_value, measured, unit="count")
    qos_bp, qos_ugpu = pick("F16", "bp"), pick("F16", "ugpu")
    if qos_bp:
        row("F16 UGPU vs QoS-aware BP STP", _gain(qos_ugpu, qos_bp),
            "+33.7%", "+33.4%")
    return rows


# ----------------------------------------------------------------------
# pagemove: the Section 4 mechanism, command level included
# ----------------------------------------------------------------------
#: App 0's channel windows: each step loses one channel and gains one.
WINDOWS = ((1, 2, 3, 4), (2, 3, 4, 5), (1, 2, 3, 4), (0, 1, 2, 3))


def pagemove(seed: int, *, faults_per_app: int = 12_000, fault_batches: int = 24,
             reallocs: int = 8, rebalance_cap: int = 1500,
             hw_pages: int = 256, hw_batches: int = 8, waves: int = 256,
             wave_requests: int = 48, hbm_batches: int = 8,
             pages_per_channel: int = 8192) -> Workload:
    """Demand faults through two TLB levels, channel reallocations,
    command-level page copies and FR-FCFS demand traffic."""
    from repro.hbm.config import HBMConfig
    from repro.hbm.controller import MemoryController, MemoryRequest, RequestKind
    from repro.hbm.system import HBMSystem
    from repro.pagemove.engine import MigrationEngine
    from repro.vm.driver import FaultKind, GPUDriver
    from repro.vm.tlb import TLB

    rng = random.Random(seed)
    driver = GPUDriver(num_channel_groups=8, pages_per_channel=pages_per_channel)
    driver.register_app(0, channels=WINDOWS[-1])
    driver.register_app(1, channels=(6, 7))
    l1_tlbs = [TLB.l1(f"l1tlb{i}") for i in range(4)]
    l2_tlb = TLB.l2()
    engine = MigrationEngine(driver, l2_tlb=l2_tlb, l1_tlbs=l1_tlbs)
    hbm = HBMSystem()
    controller = MemoryController(HBMConfig())

    # Access stream: each app touches its pages in a seeded order, every
    # first touch followed by a re-touch of one of its recent pages; the
    # two apps' streams interleave so both stay in the shared L2 TLB.
    streams = []
    for base in (0, 0x100000):
        vpns = [base + i for i in range(faults_per_app)]
        rng.shuffle(vpns)
        accesses = []
        for i, vpn in enumerate(vpns):
            accesses.append(vpn)
            accesses.append(vpns[rng.randrange(max(0, i - 255), i + 1)])
        streams.append(accesses)
    per_batch = len(streams[0]) // fault_batches
    fault_chunks = [
        [(app, vpn) for pair in zip(*(s[start:start + per_batch] for s in streams))
         for app, vpn in enumerate(pair)]
        for start in range(0, per_batch * fault_batches, per_batch)
    ]

    def access(app: int, vpn: int) -> int:
        l1 = l1_tlbs[vpn % len(l1_tlbs)]
        if l1.lookup(app, vpn) is not None:
            return 0
        entry = l2_tlb.lookup(app, vpn)
        faulted = 0
        if entry is None:
            pte = driver.page_tables[app].lookup(vpn)
            if pte is None:
                fault = driver.handle_fault(FaultKind.DEMAND, app, vpn)
                rpn, channel, faulted = fault.rpn, fault.channel, 1
            else:
                rpn, channel = pte.rpn, pte.channel
            l2_tlb.fill(app, vpn, rpn, channel)
        else:
            rpn, channel = entry.rpn, entry.channel
        l1.fill(app, vpn, rpn, channel)
        return faulted

    ops: List[Op] = []

    def resident(app: int) -> Dict[int, int]:
        return {c: driver.resident_pages(app, c)
                for c in range(driver.num_channel_groups)}

    def mapped() -> set:
        return {(app, vpn) for app, table in driver.page_tables.items()
                for vpn, _ in table.entries()}

    for index, chunk in enumerate(fault_chunks):
        def fault_check(faults, snap, chunk=chunk):
            expected = len(set(chunk) - snap)
            if faults != expected:
                return f"{faults} faults serviced, {expected} first touches"
            if len(mapped()) != len(snap) + expected:
                return "page tables do not match the pages faulted in"
            return None

        ops.append(Op(
            f"faults:{index}",
            lambda chunk=chunk: sum(access(app, vpn) for app, vpn in chunk),
            lambda faults: {"faults": faults,
                            "resident": [resident(0), resident(1)]},
            fault_check, before=mapped,
        ))

    for index in range(reallocs):
        window = WINDOWS[index % len(WINDOWS)]

        def realloc_call(window=window):
            plan = engine.plan_channel_reallocation(
                0, window, rebalance_cap=rebalance_cap)
            return engine.execute(plan)

        def realloc_check(report, snap, window=window):
            after = resident(0)
            if sum(after.values()) != sum(snap.values()):
                return (f"resident pages {sum(snap.values())} -> "
                        f"{sum(after.values())} across reallocation")
            stray = {c: n for c, n in after.items() if n and c not in window}
            if stray:
                return f"pages left in channels outside the window: {stray}"
            cleared = engine.registry.direction(0) is None
            if cleared != driver.is_balanced(0):
                return ("channel-status register "
                        f"{'cleared' if cleared else 'set'} but the driver is "
                        f"{'' if driver.is_balanced(0) else 'un'}balanced")
            for move in report.plan.eager + report.plan.lazy:
                cached = l2_tlb.peek(0, move.vpn)
                if cached is not None and cached.channel != move.dst_channel:
                    return f"stale L2 TLB translation for vpn {move.vpn:#x}"
            return None

        ops.append(Op(
            f"realloc:{index}", realloc_call,
            lambda report: {"eager": len(report.plan.eager),
                            "lazy": len(report.plan.lazy),
                            "l2_invalidated": report.l2_entries_invalidated,
                            "window": round(report.window_cycles, 6)},
            realloc_check,
            before=lambda: resident(0),
        ))

    mapping = engine.mapping
    frames = mapping.total_bytes // mapping.page_size
    channels = hbm.config.channels_per_stack
    copies = []
    for _ in range(hw_pages):
        src = rng.randrange(frames)
        src_channel = mapping.page_coordinates(src).channel
        dst = rng.choice([c for c in range(channels) if c != src_channel])
        copies.append((src, dst))
    per_hw = hw_pages // hw_batches
    clock = {"now": 0}

    for index in range(hw_batches):
        batch = copies[index * per_hw:(index + 1) * per_hw]

        def hw_call(batch=batch):
            start = clock["now"]
            for src, dst in batch:
                clock["now"] = engine.execute_page_on_hardware(
                    hbm, src, dst, now=clock["now"])
            return {"pages": len(batch), "clk": clock["now"] - start}

        def hw_output(out):
            return dict(out, commands=hbm.stats()["migrations_completed"])

        def hw_check(out, snap):
            issued = hbm.stats()["migrations_completed"] - snap
            expected = mapping.migrations_per_page * out["pages"]
            if issued != expected:
                return f"{issued} MIGRATION commands for {out['pages']} pages"
            return None

        ops.append(Op(f"hw:{index}", hw_call, hw_output, hw_check,
                      before=lambda: hbm.stats()["migrations_completed"]))

    requests = [
        (RequestKind.WRITE if rng.random() < 0.3 else RequestKind.READ,
         rng.randrange(4), rng.randrange(4), rng.randrange(64), rng.randrange(32))
        for _ in range(waves * wave_requests)
    ]
    per_hbm = waves // hbm_batches

    for index in range(hbm_batches):
        def hbm_call(index=index):
            served = enqueued = 0
            for wave in range(index * per_hbm, (index + 1) * per_hbm):
                for kind, group, bank, row, column in requests[
                        wave * wave_requests:(wave + 1) * wave_requests]:
                    controller.enqueue(MemoryRequest(
                        kind=kind, bank_group=group, bank=bank, row=row,
                        column=column, arrival=controller.now))
                    enqueued += 1
                served += len(controller.drain())
            return {"served": served, "enqueued": enqueued}

        ops.append(Op(
            f"hbm:{index}", hbm_call,
            lambda out: dict(out, row_hits=controller.stats.row_hits,
                             latency=controller.stats.total_latency),
            lambda out, snap: (None if out["served"] == out["enqueued"] else
                               f"served {out['served']} of {out['enqueued']}"),
        ))

    return Workload("pagemove", ops, inputs={
        "streams": streams, "copies": copies,
        "requests": [(k.value, g, b, r, c) for k, g, b, r, c in requests]})


# ----------------------------------------------------------------------
# fleet: the 200-node placement shoot-out, sparse and saturated
# ----------------------------------------------------------------------
def _fleet_check(result, _snap) -> Optional[str]:
    if result.arrivals != result.admissions + result.waiting_at_horizon:
        return (f"arrivals {result.arrivals} != admissions "
                f"{result.admissions} + waiting {result.waiting_at_horizon}")
    if result.departures > result.admissions:
        return (f"departures {result.departures} exceed admissions "
                f"{result.admissions}")
    return None


def _fleet_finish(results: List[Any]) -> Dict[int, str]:
    arrivals = {r.arrivals for r in results if r is not None}
    if len(arrivals) <= 1:
        return {}
    return {i: f"policies saw different arrival counts {sorted(arrivals)}"
            for i in range(len(results))}


def _fleet(name: str, seed: int, runs, *, nodes: int, horizon: int,
           interarrival: int, ipk: int, jobs: int) -> Workload:
    from repro.cluster import FleetSimulator
    from repro.exec import SweepExecutor
    from repro.workloads import poisson_arrivals

    schedule = poisson_arrivals(interarrival, horizon, seed=seed,
                                instructions_per_kernel=ipk)
    # Entered once: with jobs > 1 every round of every op shares one pool.
    executor = SweepExecutor(jobs=jobs, cache=None).__enter__()

    def run(placement, slicing):
        return FleetSimulator(
            nodes, schedule, placement, slicing=slicing,
            round_cycles=2_500_000, horizon_cycles=horizon,
            instructions_per_kernel=ipk, executor=executor,
        ).run()

    ops = [Op(f"{placement.value}:{slicing}",
              lambda p=placement, s=slicing: run(p, s),
              lambda result: result.summary(), _fleet_check)
           for placement, slicing in runs]
    return Workload(
        name, ops, finish=_fleet_finish,
        report=lambda results: [r.summary() for r in results],
        close=executor.close,
        inputs={"arrival_cycles": [e.cycle for e in schedule]},
    )


# The fleets keep the 200-node shoot-out's scale and arrival shape but a
# shorter horizon than benchmarks/test_ext_fleet.py (400M cycles), so a
# run holds several passes: one pass per run swung by 2x with the load
# other tenants put on a shared machine.
def fleet_sparse(seed: int, *, nodes: int = 200, horizon: int = 50_000_000,
                 interarrival: int = 40_000) -> Workload:
    """Short jobs on an under-used fleet: admission scans dominate."""
    from repro.cluster import PlacementPolicy

    return _fleet("fleet_sparse", seed,
                  [(p, "ugpu") for p in PlacementPolicy],
                  nodes=nodes, horizon=horizon, interarrival=interarrival,
                  ipk=50_000_000, jobs=1)


def fleet_dense(seed: int, *, nodes: int = 200, horizon: int = 100_000_000,
                interarrival: int = 20_000, jobs: int = 2) -> Workload:
    """Long jobs saturate the fleet: departures, migrations, blocking.
    Twice the sparse arrival rate saturates it within the horizon."""
    from repro.cluster import PlacementPolicy

    return _fleet("fleet_dense", seed,
                  [(PlacementPolicy.CONSOLIDATE, s) for s in ("ugpu", "mig")],
                  nodes=nodes, horizon=horizon, interarrival=interarrival,
                  ipk=4_000_000_000, jobs=jobs)
