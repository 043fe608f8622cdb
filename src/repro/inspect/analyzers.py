"""Analyzers: turn a loaded :class:`~repro.inspect.model.RunModel` into
typed findings.

Each analyzer answers one recurring post-mortem question:

* *evidence completeness* — can the rest of the report be trusted, or
  did the trace ring drop events?
* *critical path* — which chain of phases, orchestrator rounds included,
  bounds wall time, and which single phase dominates self time?
* *stragglers* — is one worker process doing disproportionate work?
* *wait queue* — how deep did the fleet admission queue run, and how
  long did jobs wait between arrival and admission (cycles)?
* *phase rollup* — do the profiler's parent/child cumulative times and
  the executor's job-seconds reconcile, or is attribution broken?

Every analyzer is defensive about missing artifacts: a bundle missing
an artifact (a run that traced nothing writes no trace) still yields
the findings its evidence supports, and nothing more.  Output order and
content are deterministic for a given bundle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro.inspect.bundle import TRACE_CAPACITY
from repro.inspect.model import RunModel
from repro.obs import WORKER_TRACE_CAPACITY

SEVERITIES = ("info", "warning")

#: A worst/median worker imbalance at or beyond this ratio is flagged.
STRAGGLER_RATIO = 4.0

#: Children may overrun their parent's cumulative time by at most this
#: factor before phase attribution is reported broken (tolerates float
#: rounding through snapshot/absorb round-trips).
ROLLUP_TOLERANCE = 1.0001


@dataclass(frozen=True)
class Finding:
    """One analyzer conclusion, severity-tagged and render-agnostic."""

    severity: str  # "info" | "warning"
    category: str  # analyzer slug, e.g. "critical_path"
    title: str
    detail: str
    data: Dict[str, Any] = field(default_factory=dict)


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile over pre-sorted values."""
    if not sorted_values:
        return 0.0
    rank = max(1, int(round(q * len(sorted_values) + 0.5)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


# ----------------------------------------------------------------------
# Individual analyzers (each returns a possibly-empty finding list)
# ----------------------------------------------------------------------
def _analyze_evidence(model: RunModel) -> List[Finding]:
    if model.dropped_events <= 0:
        return []
    return [Finding(
        severity="warning",
        category="evidence",
        title="evidence incomplete: trace events dropped",
        detail=(
            f"the trace ring buffer dropped {model.dropped_events} "
            "event(s); timeline-based findings below may undercount — "
            f"a bundle's ring holds {TRACE_CAPACITY:,} events and each "
            f"worker job's {WORKER_TRACE_CAPACITY:,}"
        ),
        data={"dropped_events": model.dropped_events},
    )]


def _analyze_critical_path(model: RunModel) -> List[Finding]:
    profiler = model.profile
    if profiler is None:
        return []
    tree = profiler.tree()
    if not tree:
        return []
    # Greedy max-cumulative descent: start at the heaviest root and at
    # each level follow the heaviest direct child.  With spans covering
    # their children this is the chain that bounds wall time.  A root is
    # any path without a recorded parent — absorbed snapshots grafted
    # under a prefix have no node for the prefix itself, so "len == 1"
    # would miss them.
    roots = [p for p in tree if p[:-1] not in tree]
    path: Tuple[str, ...] = max(
        roots, key=lambda p: (tree[p].cum_seconds, p)
    )
    chain = [path]
    while True:
        children = [p for p in tree if p[:-1] == path]
        if not children:
            break
        path = max(children, key=lambda p: (tree[p].cum_seconds, p))
        chain.append(path)
    total = profiler.total_seconds()
    flat = profiler.flat()
    dominant = flat[0]
    chain_text = " -> ".join(
        f"{p[-1]} ({tree[p].cum_seconds * 1e3:.2f}ms)" for p in chain
    )
    share = dominant.self_seconds / total if total > 0 else 0.0
    return [Finding(
        severity="info",
        category="critical_path",
        title=f"critical path: {' -> '.join(p[-1] for p in chain)}",
        detail=(
            f"critical path {chain_text}; dominant self-time phase "
            f"'{dominant.name}' ({dominant.self_seconds * 1e3:.2f}ms, "
            f"{share:.1%} of {total * 1e3:.2f}ms total)"
        ),
        data={
            "chain": ["/".join(p) for p in chain],
            "chain_cum_seconds": [
                round(tree[p].cum_seconds, 9) for p in chain
            ],
            "dominant_phase": dominant.name,
            "dominant_self_seconds": round(dominant.self_seconds, 9),
            "total_seconds": round(total, 9),
        },
    )]


def _worker_job_seconds(model: RunModel) -> Dict[str, float]:
    """Total executed-job seconds per worker token, from the bundle's
    ExecStats (empty for a bundle whose stats predate the per-worker
    map)."""
    if model.exec_stats is None:
        return {}
    return model.exec_stats.worker_seconds


def _analyze_stragglers(model: RunModel) -> List[Finding]:
    totals = _worker_job_seconds(model)
    if len(totals) < 2:
        return []
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    values = sorted(v for _, v in ranked)
    median = _percentile(values, 0.5)
    worst_key, worst = ranked[0]
    ratio = worst / median if median > 0 else float("inf")
    data = {
        "workers": len(totals),
        "worst_worker": worst_key,
        "worst_seconds": round(worst, 6),
        "median_seconds": round(median, 6),
        "ratio": round(ratio, 3) if median > 0 else None,
    }
    if median > 0 and ratio >= STRAGGLER_RATIO:
        return [Finding(
            severity="warning",
            category="stragglers",
            title=f"straggler worker {worst_key}",
            detail=(
                f"worker {worst_key} ran {worst:.3f}s of jobs vs a "
                f"{median:.3f}s median across {len(totals)} workers "
                f"({ratio:.1f}x) — load is imbalanced"
            ),
            data=data,
        )]
    return [Finding(
        severity="info",
        category="stragglers",
        title=f"worker load balanced across {len(totals)} workers",
        detail=(
            f"busiest worker {worst_key} ran {worst:.3f}s of jobs vs a "
            f"{median:.3f}s median — within the {STRAGGLER_RATIO:.0f}x "
            "straggler threshold"
        ),
        data=data,
    )]


def _analyze_wait_queue(model: RunModel) -> List[Finding]:
    findings: List[Finding] = []
    # Depth timeline from the per-round "round" instants the fleet
    # simulator traces (wait = queue depth at the round's end).
    depths = [int(e.args.get("wait", 0)) for e in model.fleet_events("round")]
    # Admission latency: each admit event's arrive -> admit cycles.
    latencies = [float(e.args["delay"]) for e in model.fleet_events("admit")
                 if "delay" in e.args]
    if not depths and not latencies:
        return []
    data: Dict[str, Any] = {}
    parts: List[str] = []
    if depths:
        data.update(
            max_wait_depth=max(depths),
            final_wait_depth=depths[-1],
            rounds=len(depths),
        )
        parts.append(
            f"wait-queue depth peaked at {max(depths)} over "
            f"{len(depths)} round(s), ending at {depths[-1]}"
        )
    if latencies:
        latencies.sort()
        p50 = _percentile(latencies, 0.5)
        p95 = _percentile(latencies, 0.95)
        data.update(
            admissions=len(latencies),
            admission_p50_cycles=p50,
            admission_p95_cycles=p95,
            admission_max_cycles=latencies[-1],
        )
        parts.append(
            f"admission latency over {len(latencies)} admission(s): "
            f"p50 {p50:.0f} / p95 {p95:.0f} / max {latencies[-1]:.0f} "
            "cycles"
        )
    severity = "warning" if depths and depths[-1] > 0 else "info"
    title = (
        f"{depths[-1]} job(s) still waiting at horizon"
        if severity == "warning" else "wait-queue dynamics"
    )
    findings.append(Finding(
        severity=severity,
        category="wait_queue",
        title=title,
        detail="; ".join(parts),
        data=data,
    ))
    return findings


def _analyze_phase_rollup(model: RunModel) -> List[Finding]:
    profiler = model.profile
    if profiler is None:
        return []
    findings: List[Finding] = []
    tree = profiler.tree()
    # Parent/child reconciliation: direct children must not (modulo
    # float noise) exceed their parent's cumulative time, or self-time
    # attribution is lying.
    for path in sorted(tree):
        children_cum = sum(
            s.cum_seconds for p, s in tree.items() if p[:-1] == path
        )
        parent_cum = tree[path].cum_seconds
        if children_cum > parent_cum * ROLLUP_TOLERANCE:
            findings.append(Finding(
                severity="warning",
                category="phase_rollup",
                title=f"phase attribution overrun under '{path[-1]}'",
                detail=(
                    f"direct children of {'/'.join(path)} sum to "
                    f"{children_cum * 1e3:.3f}ms cumulative but the "
                    f"parent recorded {parent_cum * 1e3:.3f}ms — "
                    "overlapping or mis-nested spans"
                ),
                data={
                    "path": "/".join(path),
                    "parent_cum_seconds": round(parent_cum, 9),
                    "children_cum_seconds": round(children_cum, 9),
                },
            ))
    # Reconcile worker job time against ExecStats' own accounting.
    if model.exec_stats is not None and model.exec_stats.job_seconds:
        stats_total = sum(model.exec_stats.job_seconds)
        profiled = sum(
            s.cum_seconds for p, s in tree.items() if p[-1] == "worker.job"
        )
        if profiled > 0:
            drift = abs(profiled - stats_total) / max(stats_total, 1e-12)
            findings.append(Finding(
                severity="info" if drift <= 0.5 else "warning",
                category="phase_rollup",
                title="profiler vs ExecStats job-time reconciliation",
                detail=(
                    f"worker.job phases total {profiled:.3f}s vs "
                    f"{stats_total:.3f}s of ExecStats job seconds "
                    f"({drift:.1%} drift)"
                ),
                data={
                    "profiled_seconds": round(profiled, 9),
                    "exec_stats_seconds": round(stats_total, 9),
                    "drift": round(drift, 6),
                },
            ))
    flat = profiler.flat()
    if flat:
        total = profiler.total_seconds()
        top = [
            {
                "phase": s.name,
                "self_seconds": round(s.self_seconds, 9),
                "share": round(s.self_seconds / total, 6) if total else 0.0,
            }
            for s in flat[:5]
        ]
        findings.append(Finding(
            severity="info",
            category="phase_rollup",
            title="top self-time phases",
            detail=", ".join(
                f"{t['phase']} {t['self_seconds'] * 1e3:.2f}ms" for t in top
            ),
            data={"top": top, "total_seconds": round(total, 9)},
        ))
    return findings


_ANALYZERS = (
    _analyze_evidence,
    _analyze_critical_path,
    _analyze_stragglers,
    _analyze_wait_queue,
    _analyze_phase_rollup,
)


def analyze(model: RunModel) -> List[Finding]:
    """Run every analyzer; warnings sort before infos, analyzer order
    otherwise preserved (deterministic for a given bundle)."""
    findings: List[Finding] = []
    for analyzer in _ANALYZERS:
        findings.extend(analyzer(model))
    order = {severity: i for i, severity in enumerate(SEVERITIES)}
    ranked = sorted(
        enumerate(findings),
        key=lambda pair: (-order.get(pair[1].severity, 0), pair[0]),
    )
    return [finding for _, finding in ranked]
