"""Post-hoc run analysis: bundles, analyzers, diffing, reports.

PR 8 made fleet runs *capturable* — correlated traces, merged metrics,
structured logs; this package makes them *answerable*.  It has four
pieces:

* :mod:`repro.inspect.bundle` — :class:`RunReporter` writes every
  artifact of one run (trace JSONL, Chrome trace, metrics snapshot,
  obslog, profiler phases, ExecStats, deterministic results) into one
  directory behind a schema-versioned ``manifest.json`` (the
  ``--report-dir`` flag on ``repro fleet``/``sweep``/``arrivals``);
* :mod:`repro.inspect.model` — :func:`load_bundle` reconstructs the
  unified in-memory :class:`RunModel`, keyed by the correlation IDs
  (``run_id``/``shard_id``/``pid``/worker token) stamped at capture
  time;
* :mod:`repro.inspect.analyze` — :func:`analyze` runs the analyzer
  suite (critical path, stragglers, wait-queue dynamics, phase rollup,
  cache effectiveness, evidence completeness) and emits typed
  :class:`Finding` records with severity;
* :mod:`repro.inspect.diff` — :func:`diff_bundles` compares two
  bundles: deterministic-metric divergence, ranked timing deltas,
  span-path wall-time attribution, and result (meta-count) drift —
  ``repro diff`` on the CLI.

:mod:`repro.inspect.render` turns models/diffs into the deterministic
text report (``repro inspect``) and a self-contained single-file HTML
report.
"""

from repro.inspect.analyze import Finding, analyze
from repro.inspect.bundle import (
    BUNDLE_SCHEMA,
    MANIFEST_NAME,
    RunReporter,
    read_manifest,
)
from repro.inspect.diff import BundleDiff, MetricDelta, SpanDelta, diff_bundles
from repro.inspect.model import RunModel, load_bundle
from repro.inspect.render import (
    render_diff_html,
    render_diff_text,
    render_html,
    render_text,
)

__all__ = [
    "BUNDLE_SCHEMA",
    "BundleDiff",
    "Finding",
    "MANIFEST_NAME",
    "MetricDelta",
    "RunModel",
    "RunReporter",
    "SpanDelta",
    "analyze",
    "diff_bundles",
    "load_bundle",
    "read_manifest",
    "render_diff_html",
    "render_diff_text",
    "render_html",
    "render_text",
]
