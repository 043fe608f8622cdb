"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro catalog                       # print Table 2
    python -m repro run --mix PVC,DXTC            # one mix, all policies
    python -m repro run --mix PVC,DXTC --policy ugpu bp
    python -m repro sweep --policies bp ugpu      # 50 heterogeneous mixes
    python -m repro sweep --policies bp ugpu --jobs 8   # process-pool fan-out
    python -m repro qos --target 0.75             # Figure 16 scenario
    python -m repro arrivals --seed 0             # open-system Poisson run
    python -m repro fleet --nodes 200 --jobs 8    # fleet placement shoot-out
    python -m repro run --mix PVC,DXTC --policy ugpu --report-dir runs/t
    python -m repro metrics runs/t/trace.jsonl    # trace -> Prometheus metrics
    python -m repro fleet --report-dir runs/a     # capture a run bundle
    python -m repro inspect runs/a                # post-hoc findings report
    python -m repro diff runs/a runs/b            # run-vs-run comparison

``run`` and ``sweep`` execute through :mod:`repro.exec`: ``--jobs N``
fans the independent simulations out over N worker processes.  Every
invocation simulates every job, so a printed result always comes from
the code that prints it.  An ``ExecStats`` footer on stderr reports
jobs run, wall-clock and the kernel backend the jobs ran under, so a
serial, a ``--jobs N`` and a numpy-backend run print the same stdout.

``fleet`` scales the cluster extension to datacenter size: one seeded
Poisson stream of jobs plays against every requested placement policy
over the same fleet of nodes, with node execution sharded across the
``--jobs`` worker processes (results are byte-identical to a serial
run — the ExecStats footer goes to stderr so stdout can be diffed).
``fleet --health`` attaches the
:class:`~repro.cluster.health.FleetHealthMonitor` and prints its
per-placement verdict (stragglers, wait-queue stalls).

``run``, ``sweep``, ``arrivals`` and ``fleet`` accept
``--kernel-backend {scalar,numpy}``: the pure-python scalar oracle (the
default) or the opt-in vectorized numpy fast path.  Both produce
byte-identical simulation results; only the wall-clock differs.

The same four commands accept ``--report-dir DIR``, the one place a
run's evidence lands: the merged trace (orchestrator events plus
worker-side captures from every pool process, correlated by
``run_id``/``shard_id``/``pid``) as ``trace.jsonl`` and a Chrome-trace
file that loads in ``chrome://tracing`` and Perfetto, the metrics
snapshot, the structured log (:mod:`repro.obslog`), profiler phases,
ExecStats and the command's deterministic results, captured into DIR as
a *run bundle* behind a schema-versioned ``manifest.json``
(``--report-gzip`` compresses the line-oriented artifacts).  ``repro
inspect BUNDLE`` loads a bundle (:mod:`repro.inspect`) and prints the
trace summary (epochs, migration stall, faults, reallocations, QoS
interventions), typed findings — critical path, stragglers, wait-queue
dynamics, phase rollups — and the hot-phase table;
``repro diff A B`` separates determinism drift (results, deterministic
counters, artifact meta counts — required zero between identical-seed
runs, whatever the kernel backend) from expected timing deltas and
attributes wall-time change to specific span paths.  Both write
self-contained single-file HTML reports via ``--html``.

They also accept :mod:`repro.telemetry` flags, in formats other tools
read: ``--metrics-out`` (Prometheus text exposition) and
``--metrics-csv`` (per-epoch long-format series — the input
``examples/live_dashboard.py`` tails).  Every observability flag
builds one :class:`~repro.obs.Obs` handle and turns on worker-side
capture.  ``metrics`` folds a recorded JSONL trace into
a registry offline, with the same function a live run folds its events
through, so it reproduces every sample the trace's events carry.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from typing import List, Optional, Sequence

from repro import MultitaskSystem, QoSTarget, TABLE2, build_mix
from repro.cluster import PlacementPolicy
from repro.exec import SweepExecutor, SweepJob, registered_policies
from repro.fastpath import (
    KERNEL_BACKENDS,
    resolve_kernel_backend,
    set_default_kernel_backend,
)
from repro.obs import OFF, Obs
from repro.policies import BPPolicy, MPSPolicy, UGPUPolicy
from repro.workloads import heterogeneous_pairs, poisson_arrivals


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_backend_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kernel-backend", default=None,
                        choices=list(KERNEL_BACKENDS),
                        help="simulation hot-loop implementation: 'scalar' "
                             "is the pure-python oracle (default), 'numpy' "
                             "the opt-in vectorized fast path; results are "
                             "byte-identical")


def _add_exec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                        help="worker processes for the sweep executor "
                             "(default: 1, in-process)")


def _job_kwargs(args) -> Optional[dict]:
    """Sweep-job kwargs implied by global flags.

    An explicit ``--kernel-backend`` travels with each job so worker
    processes honor it; the default (resolved in each process) adds
    nothing.
    """
    backend = getattr(args, "kernel_backend", None)
    return {"kernel_backend": backend} if backend else None


def _add_metrics_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="write the Prometheus text exposition here "
                             "when the command finishes")
    parser.add_argument("--metrics-csv", default=None, metavar="FILE",
                        help="sample every metric at each epoch boundary "
                             "into a long-format CSV")


def _add_report_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--report-dir", default=None, metavar="DIR",
                        help="capture every artifact of this run (trace, "
                             "metrics, obslog, profiler phases, results) "
                             "into DIR as a run bundle for `repro inspect` "
                             "and `repro diff`")
    parser.add_argument("--report-gzip", action="store_true",
                        help="gzip the bundle's line-oriented artifacts "
                             "(readers decompress transparently)")


def _observe(args, command: str, labels: dict, **ids):
    """The :class:`~repro.obs.Obs` handle the observability flags ask for.

    Returns ``(obs, run_id, finish)``.  ``obs`` is :data:`~repro.obs.OFF`
    when no flag is set, so instrumented paths stay free; any flag turns
    it on, with worker-side capture (:attr:`~repro.obs.Obs.captures`).
    The handle holds one registry, whose provenance carries ``command``
    and ``labels``, serving every ``--metrics-*`` export and the bundle;
    ``--report-dir`` adds the recorder, logger and profiler of a
    :class:`~repro.inspect.RunReporter`.  The ``run_id`` hashes the
    command's shape (``ids``), so two invocations of the same
    configuration correlate.

    ``finish(results=None, exec_stats=None)`` writes every export: it
    sets the trace-drop gauge (workers' drops included), writes the
    bundle with the command's deterministic ``results`` (announced on
    stderr, so stdout stays byte-diffable between serial and sharded
    runs), then the metrics.
    """
    if not (args.metrics_out or args.metrics_csv or args.report_dir):
        return OFF, "", lambda results=None, exec_stats=None: None
    from repro.telemetry import CsvSampler, MetricsRegistry, stamp
    from repro.telemetry.provenance import config_hash

    run_id = config_hash(None, command=command, **ids)
    reporter = sampler = None
    if args.report_dir:
        from repro.inspect import RunReporter

        reporter = RunReporter(args.report_dir, command=command,
                               run_id=run_id, compress=args.report_gzip)
        obs = reporter.obs
    else:
        obs = Obs(registry=MetricsRegistry())
    stamp(obs.registry, None, kernel_backend=resolve_kernel_backend(),
          command=command, **labels)
    if args.metrics_csv:
        sampler = CsvSampler(args.metrics_csv)
        sampler.attach(obs.registry)

    def finish(results=None, exec_stats=None) -> None:
        obs.gauge_trace_drops()
        if reporter is not None:
            path = reporter.finish(results=results, exec_stats=exec_stats)
            print(f"wrote run bundle manifest to {path}", file=sys.stderr)
        if sampler is not None:
            sampler.close()
            print(f"wrote {sampler.rows_written} epoch samples to "
                  f"{args.metrics_csv}")
        if args.metrics_out:
            from repro.telemetry import write_prometheus

            count = write_prometheus(obs.registry, args.metrics_out)
            print(f"wrote {count} metric samples to {args.metrics_out}")

    return obs, run_id, finish


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="UGPU (ISCA 2025) reproduction: unbalanced GPU slices "
                    "with PageMove migration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    catalog = sub.add_parser("catalog", help="print the Table 2 benchmark catalog")

    run = sub.add_parser("run", help="run one workload mix under one or "
                                     "more policies")
    run.add_argument("--mix", required=True,
                     help="comma-separated benchmark abbreviations, e.g. PVC,DXTC")
    run.add_argument("--policy", nargs="+", default=registered_policies(),
                     choices=registered_policies(), help="policies to compare")
    run.add_argument("--cycles", type=_positive_int, default=25_000_000,
                     help="simulation horizon in GPU cycles")
    _add_exec_flags(run)
    _add_metrics_flags(run)
    _add_report_flags(run)
    _add_backend_flag(run)

    sweep = sub.add_parser("sweep", help="run the 50 heterogeneous mixes")
    sweep.add_argument("--policies", nargs="+", default=["bp", "ugpu"],
                       choices=registered_policies())
    sweep.add_argument("--cycles", type=_positive_int, default=25_000_000)
    _add_exec_flags(sweep)
    _add_metrics_flags(sweep)
    _add_report_flags(sweep)
    _add_backend_flag(sweep)

    qos = sub.add_parser("qos", help="QoS scenario: high-priority "
                                     "compute-bound app (Figure 16)")
    qos.add_argument("--mix", default="PVC,DXTC")
    qos.add_argument("--target", type=float, default=0.75,
                     help="normalized-progress floor for the second app")
    qos.add_argument("--cycles", type=_positive_int, default=25_000_000)

    arrivals = sub.add_parser(
        "arrivals",
        help="open-system run: seeded Poisson job arrivals/departures")
    arrivals.add_argument("--seed", type=int, default=0,
                          help="arrival-trace seed (deterministic)")
    arrivals.add_argument("--policy", default="ugpu",
                          choices=registered_policies(),
                          help="partition policy (default: ugpu)")
    arrivals.add_argument("--mean-interarrival", type=_positive_int,
                          default=2_000_000, metavar="CYCLES",
                          help="mean inter-arrival time (default: 2M cycles)")
    arrivals.add_argument("--cycles", type=_positive_int, default=25_000_000,
                          help="simulation horizon in GPU cycles")
    arrivals.add_argument("--max-slots", type=_positive_int, default=None,
                          help="concurrent-residency cap (default: what the "
                               "GPU's minimum slices can host)")
    arrivals.add_argument("--initial", default=None, metavar="MIX",
                          help="comma-separated benchmarks resident at cycle "
                               "0 (default: start empty)")
    _add_metrics_flags(arrivals)
    _add_report_flags(arrivals)
    _add_backend_flag(arrivals)

    fleet = sub.add_parser(
        "fleet",
        help="fleet-scale open system: hundreds of nodes, one seeded "
             "arrival stream, every placement policy compared")
    fleet.add_argument("--nodes", type=_positive_int, default=48,
                       help="GPU nodes in the fleet (default: 48)")
    fleet.add_argument("--tenants-per-node", type=_positive_int, default=4,
                       help="slice slots per node (default: 4)")
    fleet.add_argument("--placement", nargs="+",
                       default=[p.value for p in PlacementPolicy],
                       choices=[p.value for p in PlacementPolicy],
                       help="placement policies to compare (default: all)")
    fleet.add_argument("--slicing", choices=["ugpu", "mig"], default="ugpu",
                       help="per-node slicing: unbalanced UGPU slices or "
                            "rigid MIG-like ones (default: ugpu)")
    fleet.add_argument("--seed", type=int, default=0,
                       help="arrival-trace seed (deterministic)")
    fleet.add_argument("--mean-interarrival", type=_positive_int,
                       default=150_000, metavar="CYCLES",
                       help="mean job inter-arrival time (default: 150k "
                            "cycles — a busy fleet)")
    fleet.add_argument("--cycles", type=_positive_int, default=150_000_000,
                       help="simulation horizon in GPU cycles")
    fleet.add_argument("--round-cycles", type=_positive_int,
                       default=2_500_000, metavar="CYCLES",
                       help="scheduling-round length (default: 2.5M cycles)")
    fleet.add_argument("--rebalance-every", type=_positive_int, default=8,
                       metavar="ROUNDS",
                       help="rounds between cross-shard rebalancing passes "
                            "(default: 8)")
    fleet.add_argument("--instructions-per-kernel", type=_positive_int,
                       default=50_000_000, metavar="N",
                       help="kernel size for arriving jobs; one full launch "
                            "is a job's budget (default: 50M)")
    fleet.add_argument("--health", action="store_true",
                       help="attach the fleet health monitor and print its "
                            "per-placement verdict (stragglers, wait-queue "
                            "stalls)")
    _add_exec_flags(fleet)
    _add_metrics_flags(fleet)
    _add_report_flags(fleet)
    _add_backend_flag(fleet)

    metrics = sub.add_parser(
        "metrics",
        help="derive Prometheus/JSON metrics from a recorded JSONL trace")
    metrics.add_argument("trace", metavar="TRACE.jsonl",
                         help="trace.jsonl of a --report-dir run bundle")
    metrics.add_argument("--out", default=None, metavar="FILE",
                         help="write the Prometheus exposition here "
                              "(default: stdout)")
    metrics.add_argument("--json", default=None, metavar="FILE",
                         help="also write a JSON snapshot here")
    metrics.add_argument("--validate", action="store_true",
                         help="re-parse the written exposition as a "
                              "format check")

    export = sub.add_parser("export", help="write a figure's data series "
                                           "as CSV (for plotting)")
    export.add_argument("figure", choices=["fig2", "fig3", "fig4"],
                        help="which paper figure's series to export")
    export.add_argument("--output", default="-",
                        help="output path (default: stdout)")

    inspect_cmd = sub.add_parser(
        "inspect",
        help="analyze a --report-dir run bundle: typed findings (critical "
             "path, stragglers, wait queue) + hot phases")
    inspect_cmd.add_argument("bundle", metavar="DIR",
                             help="bundle directory written by --report-dir")
    inspect_cmd.add_argument("--html", default=None, metavar="FILE",
                             help="also write a self-contained HTML report")
    inspect_cmd.add_argument("--top", type=_positive_int, default=10,
                             help="rows in the hot-phase table (default: 10)")

    diff_cmd = sub.add_parser(
        "diff",
        help="compare two run bundles: determinism drift vs timing deltas, "
             "with wall-time change attributed to span paths")
    diff_cmd.add_argument("bundle_a", metavar="DIR_A",
                          help="baseline bundle directory")
    diff_cmd.add_argument("bundle_b", metavar="DIR_B",
                          help="candidate bundle directory")
    diff_cmd.add_argument("--html", default=None, metavar="FILE",
                          help="also write a self-contained HTML report")
    diff_cmd.add_argument("--top", type=_positive_int, default=10,
                          help="entries per ranked section (default: 10)")
    diff_cmd.add_argument("--expect-identical", action="store_true",
                          help="exit 1 unless the runs show zero "
                               "deterministic divergence")
    return parser


def cmd_catalog(_args) -> int:
    print(f"{'abbr':<8} {'suite':<10} {'MPKI':>8} {'kernels':>8} "
          f"{'footprint':>10}  class")
    for spec in TABLE2:
        cls = "memory" if spec.memory_bound else "compute"
        print(f"{spec.abbr:<8} {spec.suite:<10} {spec.mpki:>8} "
              f"{spec.num_kernels:>8} {spec.footprint_mb:>8}MB  {cls}")
    return 0


def cmd_run(args) -> int:
    abbrs = [a.strip() for a in args.mix.split(",") if a.strip()]
    print(f"mix: {'_'.join(abbrs)}  horizon: {args.cycles:,} cycles\n")
    obs, run_id, finish = _observe(
        args, "run", {"mix": "_".join(abbrs)}, mix="_".join(abbrs),
        policies="_".join(args.policy), cycles=args.cycles)
    executor = SweepExecutor(jobs=args.jobs, obs=obs)
    jobs = [SweepJob.build(name, abbrs, args.cycles, kwargs=_job_kwargs(args))
            for name in args.policy]
    results = executor.run(jobs)
    obs.absorb(executor.last_envelopes, prefix=("worker",),
               shard_prefix="job", run_id=run_id)
    print(f"{'policy':<14} {'STP':>7} {'ANTT':>7} {'min NP':>7}  per-app NP")
    for name, result in zip(args.policy, results):
        nps = ", ".join(f"{r.name}={r.normalized_progress:.2f}"
                        for r in result.runs)
        print(f"{name:<14} {result.stp:>7.3f} {result.antt:>7.2f} "
              f"{result.min_np:>7.2f}  {nps}")
    print(f"\n{executor.stats.format()}", file=sys.stderr)
    finish(
        results={
            "mix": "_".join(abbrs),
            "policies": {
                name: {
                    "stp": round(result.stp, 6),
                    "antt": round(result.antt, 6),
                    "min_np": round(result.min_np, 6),
                }
                for name, result in zip(args.policy, results)
            },
        },
        exec_stats=executor.stats,
    )
    return 0


def cmd_sweep(args) -> int:
    pairs = heterogeneous_pairs()
    print(f"sweeping {len(pairs)} heterogeneous mixes, "
          f"{args.cycles:,} cycles each\n")
    obs, run_id, finish = _observe(
        args, "sweep", {}, policies="_".join(args.policies),
        cycles=args.cycles)
    executor = SweepExecutor(jobs=args.jobs, obs=obs)
    jobs = [SweepJob.build(name, pair, args.cycles, kwargs=_job_kwargs(args))
            for name in args.policies for pair in pairs]
    results = executor.run(jobs)
    obs.absorb(executor.last_envelopes, prefix=("worker",),
               shard_prefix="job", run_id=run_id)
    stats = {}
    for offset, name in enumerate(args.policies):
        chunk = results[offset * len(pairs):(offset + 1) * len(pairs)]
        stps = [r.stp for r in chunk]
        antts = [r.antt for r in chunk]
        stats[name] = (stps, antts)
        print(f"{name:<14} STP mean {statistics.fmean(stps):.3f} "
              f"(min {min(stps):.3f}, max {max(stps):.3f})   "
              f"ANTT mean {statistics.fmean(antts):.2f}")
    if "bp" in stats:
        base = statistics.fmean(stats["bp"][0])
        for name, (stps, _) in stats.items():
            if name != "bp":
                gain = statistics.fmean(stps) / base - 1
                print(f"\n{name} vs bp: {gain:+.1%}")
    print(f"\n{executor.stats.format()}", file=sys.stderr)
    finish(
        results={
            "policies": {
                name: {
                    "stp_mean": round(statistics.fmean(stps), 6),
                    "stp_min": round(min(stps), 6),
                    "stp_max": round(max(stps), 6),
                    "antt_mean": round(statistics.fmean(antts), 6),
                }
                for name, (stps, antts) in stats.items()
            },
            "mixes": len(pairs),
        },
        exec_stats=executor.stats,
    )
    return 0


def cmd_qos(args) -> int:
    abbrs = [a.strip() for a in args.mix.split(",")]
    if len(abbrs) != 2:
        print("qos expects a two-benchmark mix", file=sys.stderr)
        return 2
    target = QoSTarget(app_id=1, target_np=args.target)
    print(f"high-priority app: {abbrs[1]} (target NP {args.target})\n")
    rows = [
        ("MPS", MultitaskSystem(
            build_mix(abbrs).applications,
            policy=MPSPolicy(sm_assignment={1: 60, 0: 20}))),
        ("QoS-BP", MultitaskSystem(
            build_mix([abbrs[1], abbrs[0]]).applications,
            policy=BPPolicy(qos_big_first=True))),
        ("UGPU", MultitaskSystem(
            build_mix(abbrs).applications, policy=UGPUPolicy(qos=target))),
    ]
    for name, system in rows:
        result = system.run(args.cycles)
        hp_name = abbrs[1]
        hp = next(r for r in result.runs if r.name == hp_name)
        verdict = "meets" if hp.normalized_progress >= args.target * 0.97 else "VIOLATES"
        print(f"{name:<8} STP {result.stp:.3f}  high-priority NP "
              f"{hp.normalized_progress:.3f} ({verdict})")
    return 0


def cmd_arrivals(args) -> int:
    """Open-system simulation: seeded Poisson arrivals over the catalog."""
    from repro.exec import resolve_policy

    schedule = poisson_arrivals(
        mean_interarrival_cycles=args.mean_interarrival,
        horizon_cycles=args.cycles,
        seed=args.seed,
    )
    initial = []
    label = "open"
    if args.initial:
        abbrs = [a.strip() for a in args.initial.split(",") if a.strip()]
        initial = build_mix(abbrs).applications
        label = "_".join(abbrs) + "+open"
    print(f"policy: {args.policy}  seed: {args.seed}  "
          f"horizon: {args.cycles:,} cycles")
    print(f"{len(schedule)} arrivals scheduled "
          f"(mean inter-arrival {args.mean_interarrival:,} cycles), "
          f"{len(initial)} jobs resident at cycle 0\n")
    obs, _run_id, finish = _observe(
        args, "arrivals", {"policy": args.policy, "seed": str(args.seed)},
        policy=args.policy, seed=str(args.seed), cycles=args.cycles)
    factory = resolve_policy(args.policy)
    system = factory(initial, arrivals=schedule, max_slots=args.max_slots,
                     obs=obs)
    result = system.run(args.cycles, mix_name=label)
    print(f"{'job':<8} {'arrive':>12} {'admit':>12} {'depart':>12} "
          f"{'wait':>10} {'NP':>6}")
    for run in result.runs:
        depart = (f"{run.depart_cycle:>12,}" if run.depart_cycle is not None
                  else f"{'(resident)':>12}")
        print(f"{run.name:<8} {run.arrival_cycle:>12,} {run.admit_cycle:>12,} "
              f"{depart} {run.queueing_delay:>10,} "
              f"{run.normalized_progress(args.cycles):>6.2f}")
    print(f"\narrivals {result.arrivals}  admissions {result.admissions}  "
          f"departures {result.departures}  repartitions {result.repartitions}")
    if result.runs:
        print(f"interval STP {result.stp:.3f}  interval ANTT {result.antt:.2f}  "
              f"mean queueing delay {result.mean_queueing_delay:,.0f} cycles  "
              f"makespan {result.makespan:,} cycles")
    else:
        print("no job was admitted before the horizon")
    results_payload = {
        "policy": args.policy,
        "seed": args.seed,
        "arrivals": result.arrivals,
        "admissions": result.admissions,
        "departures": result.departures,
        "repartitions": result.repartitions,
    }
    if result.runs:
        results_payload.update(
            stp=round(result.stp, 6),
            antt=round(result.antt, 6),
            mean_queueing_delay=round(result.mean_queueing_delay, 3),
            makespan=result.makespan,
        )
    finish(results=results_payload)
    return 0


def cmd_fleet(args) -> int:
    """Fleet-scale placement shoot-out over one seeded arrival stream.

    Everything on stdout is deterministic (no wall times), so CI can
    ``diff`` a serial run against a sharded one; the ExecStats footer
    goes to stderr.
    """
    from repro.cluster import FleetSimulator

    schedule = poisson_arrivals(
        mean_interarrival_cycles=args.mean_interarrival,
        horizon_cycles=args.cycles,
        seed=args.seed,
        instructions_per_kernel=args.instructions_per_kernel,
    )
    capacity = args.nodes * args.tenants_per_node
    print(f"fleet: {args.nodes} nodes x {args.tenants_per_node} slots "
          f"({capacity} slots)  slicing: {args.slicing}  seed: {args.seed}")
    print(f"{len(schedule)} arrivals over {args.cycles:,} cycles "
          f"(mean inter-arrival {args.mean_interarrival:,}, "
          f"round {args.round_cycles:,})\n")
    obs, _run_id, finish = _observe(
        args, "fleet", {"slicing": args.slicing, "seed": str(args.seed)},
        seed=str(args.seed), nodes=args.nodes, slicing=args.slicing,
        cycles=args.cycles)
    print(f"{'policy':<18} {'STP':>8} {'ANTT':>8} {'q-delay':>12} "
          f"{'frag':>7} {'active':>7} {'adm':>6} {'dep':>6} {'mig':>5} "
          f"{'wait':>5}  energy(J)")
    health_reports = []
    placement_summaries = {}
    with SweepExecutor(jobs=args.jobs, obs=obs) as executor:
        for name in args.placement:
            monitor = None
            if args.health:
                from repro.cluster import FleetHealthMonitor

                monitor = FleetHealthMonitor(obs=obs)
            simulator = FleetSimulator(
                args.nodes,
                schedule,
                PlacementPolicy.parse(name),
                slicing=args.slicing,
                tenants_per_node=args.tenants_per_node,
                round_cycles=args.round_cycles,
                horizon_cycles=args.cycles,
                rebalance_every=args.rebalance_every,
                instructions_per_kernel=args.instructions_per_kernel,
                executor=executor,
                obs=obs,
                health=monitor,
            )
            result = simulator.run()
            placement_summaries[name] = result.summary()
            if monitor is not None:
                health_reports.append((name, result.health))
            energy = (f"{result.energy.total:>10.3f}"
                      if result.energy is not None else f"{'-':>10}")
            print(f"{name:<18} {result.stp:>8.3f} {result.antt:>8.2f} "
                  f"{result.mean_queueing_delay:>12,.0f} "
                  f"{result.fragmentation:>7.3f} "
                  f"{result.mean_active_nodes:>7.1f} "
                  f"{result.admissions:>6} {result.departures:>6} "
                  f"{result.migrations:>5} {result.waiting_at_horizon:>5} "
                  f"{energy}")
    for name, report in health_reports:
        print(f"\n[{name}] {report.format()}")
    print(f"\n{executor.stats.format()}", file=sys.stderr)
    finish(results={"placements": placement_summaries},
           exec_stats=executor.stats)
    return 0


def cmd_metrics(args) -> int:
    """Fold a recorded trace into a registry and export it (offline bridge)."""
    from repro.telemetry import (
        registry_from_trace,
        stamp,
        to_prometheus,
        validate_prometheus_file,
        write_json,
        write_prometheus,
    )
    from repro.trace import read_jsonl

    events = read_jsonl(args.trace)
    registry = registry_from_trace(events, dropped_events=0)
    stamp(registry, None, source=os.path.basename(args.trace))
    if args.out:
        count = write_prometheus(registry, args.out)
        print(f"folded {len(events)} events into {count} metric samples "
              f"at {args.out}")
        if args.validate:
            validate_prometheus_file(args.out)
            print(f"{args.out}: exposition format OK")
    else:
        sys.stdout.write(to_prometheus(registry))
    if args.json:
        families = write_json(registry, args.json)
        print(f"wrote {families} metric families to {args.json}")
    return 0


def cmd_export(args) -> int:
    """Regenerate a motivation figure's series as CSV."""
    from repro import PerformanceModel
    from repro.workloads import build_application

    model = PerformanceModel()
    pvc = build_application("PVC").kernels[0]
    dxtc = build_application("DXTC").kernels[0]
    rows: List[List] = []
    if args.figure == "fig2":
        base = model.throughput(dxtc, 40, 16).ipc
        rows.append(["series", "x", "normalized_perf"])
        for m in range(2, 33, 2):
            rows.append(["vs_channels", m, model.throughput(dxtc, 40, m).ipc / base])
        for s in range(10, 81, 5):
            rows.append(["vs_sms", s, model.throughput(dxtc, s, 16).ipc / base])
    elif args.figure == "fig3":
        base = model.throughput(pvc, 40, 16).ipc
        rows.append(["series", "x", "normalized_perf"])
        for m in range(2, 33, 2):
            rows.append(["vs_channels", m, model.throughput(pvc, 40, m).ipc / base])
        for s in range(8, 81, 4):
            rows.append(["vs_sms", s, model.throughput(pvc, s, 16).ipc / base])
    else:  # fig4
        alone_p = model.throughput(pvc, 80, 32).ipc
        alone_d = model.throughput(dxtc, 80, 32).ipc
        rows.append(["pvc_sms", "pvc_channels", "stp"])
        for sms in range(4, 77, 4):
            for mcs in range(4, 29, 4):
                stp = (model.throughput(pvc, sms, mcs).ipc / alone_p
                       + model.throughput(dxtc, 80 - sms, 32 - mcs).ipc / alone_d)
                rows.append([sms, mcs, round(stp, 4)])

    text = "\n".join(",".join(str(c) for c in row) for row in rows) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {len(rows) - 1} rows to {args.output}")
    return 0


def cmd_inspect(args) -> int:
    """Post-hoc analysis of one --report-dir run bundle."""
    from repro.inspect import analyze, load_bundle, render_html, render_text

    model = load_bundle(args.bundle)
    findings = analyze(model)
    sys.stdout.write(render_text(model, findings, top=args.top))
    if args.html:
        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(render_html(model, findings, top=args.top))
        print(f"wrote HTML report to {args.html}", file=sys.stderr)
    return 0


def cmd_diff(args) -> int:
    """Run-vs-run comparison of two --report-dir run bundles."""
    from repro.inspect import diff_bundles, render_diff_html, render_diff_text

    diff = diff_bundles(args.bundle_a, args.bundle_b)
    sys.stdout.write(render_diff_text(diff, top=args.top))
    if args.html:
        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(render_diff_html(diff))
        print(f"wrote HTML report to {args.html}", file=sys.stderr)
    if args.expect_identical and not diff.zero_divergence:
        print("--expect-identical: deterministic divergence found",
              file=sys.stderr)
        return 1
    return 0


def main(argv: Sequence[str] = None) -> int:
    args = _parser().parse_args(argv)
    backend = getattr(args, "kernel_backend", None)
    if backend is not None:
        # Process-wide default for every system this command constructs,
        # plus the environment variable so spawned pool workers inherit it.
        set_default_kernel_backend(backend)
        os.environ["REPRO_KERNEL_BACKEND"] = backend
    handlers = {
        "catalog": cmd_catalog,
        "run": cmd_run,
        "sweep": cmd_sweep,
        "qos": cmd_qos,
        "arrivals": cmd_arrivals,
        "fleet": cmd_fleet,
        "metrics": cmd_metrics,
        "export": cmd_export,
        "inspect": cmd_inspect,
        "diff": cmd_diff,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
