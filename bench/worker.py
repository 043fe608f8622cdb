"""One pass of one workload, in a fresh interpreter.

``run.py`` starts this script once per pass so every pass pays the costs
a user pays on every run: interpreter start, ``import repro``, input
generation and empty memo caches.  It prints one JSON line::

    python bench/worker.py --workload paper --seed 0 --t0 <CLOCK_MONOTONIC>

``--t0`` is the monotonic clock reading the parent took just before it
started the process, so ``setup_s`` covers interpreter start-up too.
``--setup-only`` stops before the first op; ``--trace DIR`` installs the
layer wrappers and writes ``spans.jsonl`` and ``layers.json`` to DIR.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional


def monotonic() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class PassResult:
    op_seconds: List[float] = field(default_factory=list)
    fingerprints: List[Optional[str]] = field(default_factory=list)
    labels: List[str] = field(default_factory=list)
    #: op index -> why the op failed (raised, or failed an invariant).
    failures: Dict[int, str] = field(default_factory=dict)
    report: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.op_seconds)


def run_pass(workload, tracer=None,
             clock: Callable[[], float] = time.perf_counter) -> PassResult:
    """Run every op back to back; outputs and checks run untimed between
    ops.  A raising op is counted as failed and the pass goes on."""
    from workloads import fingerprint

    out = PassResult()
    results: List[Any] = []
    for index, op in enumerate(workload.ops):
        snapshot = op.before() if op.before is not None else None
        result = None
        start = clock()
        try:
            if tracer is not None:
                result = tracer.run_op(index, op.label, op.call)
            else:
                result = op.call()
        except Exception as exc:  # an op failure is data, not a crash
            out.failures[index] = f"raised {type(exc).__name__}: {exc}"
        out.op_seconds.append(clock() - start)
        out.labels.append(op.label)
        results.append(result)
        if index in out.failures:
            out.fingerprints.append(None)
            continue
        try:
            out.fingerprints.append(fingerprint(op.output(result)))
            reason = op.check(result, snapshot)
        except Exception as exc:
            out.fingerprints.append(None)
            reason = f"output check raised {type(exc).__name__}: {exc}"
        if reason:
            out.failures[index] = reason
    for index, reason in workload.finish(results).items():
        out.failures.setdefault(index, reason)
    if all(result is not None for result in results):
        out.report = workload.report(results)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", type=Path, default=None, metavar="DIR")
    parser.add_argument("--baseline-wall", type=float, default=None,
                        help="untraced median wall time, for the overhead")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import repro  # noqa: F401  (the start-up cost being measured)
    import_s = time.perf_counter() - start

    tracer = None
    if args.trace is not None:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    import workloads
    from repro.fastpath import resolve_kernel_backend

    workload = workloads.build(args.workload, args.seed)
    payload: Dict[str, Any] = {
        "setup_s": monotonic() - args.t0,
        "import_s": import_s,
        "numpy_loaded": int("numpy" in sys.modules),
        "backend": resolve_kernel_backend(),
    }
    try:
        if not args.setup_only:
            result = run_pass(workload, tracer)
            payload.update(
                op_seconds=result.op_seconds,
                fingerprints=result.fingerprints,
                labels=result.labels,
                failures={str(k): v for k, v in result.failures.items()},
                report=result.report,
            )
    finally:
        workload.close()
    payload["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        layers = tracer.metrics()
        layers["startup.import_s"] = import_s
        layers["startup.numpy_loaded"] = payload["numpy_loaded"]
        if args.baseline_wall:
            layers["trace_overhead_frac"] = (
                sum(payload["op_seconds"]) / args.baseline_wall - 1)
        payload["layers"] = layers
        payload["spans_dropped"] = tracer.dropped
        tracer.write(args.trace, layers)
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
