#!/usr/bin/env python3
"""Tracing a reallocation: the time-resolved view behind Figures 11-16.

The end-of-run aggregates (STP, ANTT) say *how much* UGPU gains; the
trace layer says *when* and *why*: which epoch repartitioned, what each
migration window cost, how the driver's fault mix breaks down, and where
QoS enforcement intervened.  This walkthrough:

1. runs a UGPU mix observed by an :class:`repro.obs.Obs` handle that
   holds a :class:`repro.trace.TraceRecorder`, and prints an ASCII epoch
   timeline from the ``epoch``/``realloc`` events;
2. drives the page-level :class:`~repro.pagemove.MigrationEngine` with
   the same handle to capture ``migration`` plans and ``fault``
   records;
3. exports everything as JSONL plus a Chrome-trace file that loads in
   chrome://tracing or https://ui.perfetto.dev.

Run:  python examples/trace_timeline.py
"""

from repro import MultitaskSystem, UGPUPolicy, build_mix
from repro.obs import Obs
from repro.pagemove import InterleavedPageMapping, MigrationEngine, PageMoveAddressMapping
from repro.trace import TraceRecorder, summarize, write_chrome_trace, write_jsonl
from repro.vm import FaultKind, GPUDriver


def epoch_timeline(recorder: TraceRecorder) -> None:
    """One row per epoch: bandwidth of the migration stall, R = realloc."""
    realloc_epochs = {
        e.args["epoch"] for e in recorder.events("realloc") if e.name == "apply"
    }
    print("epoch timeline (| = 10% of the epoch spent in migration windows):")
    for event in recorder.events("epoch"):
        index = int(event.name.split("[")[1].rstrip("]"))
        stall = event.args["migration_cycles"] / max(1.0, event.duration)
        bar = "|" * round(stall * 10)
        mark = "R" if index in realloc_epochs else " "
        print(f"  epoch {index:>2} {mark} [{bar:<10}] "
              f"stall {stall:5.1%}  instr {event.args['instructions']:,}")


def system_level(recorder: TraceRecorder) -> None:
    apps = build_mix(["PVC", "DXTC"]).applications
    system = MultitaskSystem(apps, obs=Obs(recorder), policy=UGPUPolicy())
    result = system.run(25_000_000, mix_name="PVC_DXTC")
    print(f"UGPU on PVC_DXTC: STP {result.stp:.3f}, "
          f"{result.repartitions} repartition(s)\n")
    epoch_timeline(recorder)


def page_level(recorder: TraceRecorder) -> None:
    """The same recorder captures driver faults and migration plans."""
    obs = Obs(recorder)
    mapping = PageMoveAddressMapping()
    driver = GPUDriver(pages_per_channel=32,
                       mapping=InterleavedPageMapping(mapping), obs=obs)
    engine = MigrationEngine(driver, mapping=mapping, obs=obs)
    driver.register_app(0, channels=[0, 1, 3])
    for vpn in range(8):
        driver.handle_fault(FaultKind.DEMAND, 0, vpn, target_channel=3)
    plan = engine.plan_channel_reallocation(0, new_channels=[0, 1])
    engine.execute(plan)
    plan_event = recorder.events("migration")[-2]
    print(f"\npage-level: planned eager={plan_event.args['eager']} "
          f"lazy={plan_event.args['lazy']} "
          f"(lost channels {plan_event.args['lost_channels']})")
    kinds = {}
    for event in recorder.events("fault"):
        kinds[event.name] = kinds.get(event.name, 0) + 1
    print(f"driver fault mix: {kinds}")


def main() -> None:
    recorder = TraceRecorder()
    system_level(recorder)
    page_level(recorder)

    events = recorder.events()
    write_jsonl(events, "trace_timeline.jsonl")
    write_chrome_trace(events, "trace_timeline.chrome.json")
    print(f"\nexported {len(events)} events to trace_timeline.jsonl and "
          "trace_timeline.chrome.json (open in Perfetto)")
    print(f"\n{summarize(events).format()}")


if __name__ == "__main__":
    main()
