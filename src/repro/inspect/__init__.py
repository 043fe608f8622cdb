"""Post-hoc run analysis: bundles, analyzers, diffing, reports.

Fleet runs are *capturable* — correlated traces and merged metrics;
this package makes them *answerable*.  It has four pieces:

* :mod:`repro.inspect.bundle` — :class:`RunReporter` writes every
  artifact of one run (trace JSONL, Chrome trace, metrics snapshot,
  profiler phases, ExecStats, deterministic results) into one
  directory behind a schema-versioned ``manifest.json`` (the
  ``--report-dir`` flag on ``repro run``/``sweep``/``arrivals``/
  ``fleet``, the one place a CLI run writes its evidence);
* :mod:`repro.inspect.model` — :func:`load_bundle` reconstructs the
  unified in-memory :class:`RunModel`, keyed by the correlation IDs
  (``run_id``/``shard_id``/``pid``/worker token) stamped at capture
  time;
* :mod:`repro.inspect.analyzers` — :func:`analyze` runs the analyzer
  suite (critical path, stragglers, wait-queue dynamics, phase rollup,
  evidence completeness) and emits typed
  :class:`Finding` records with severity;
* :mod:`repro.inspect.diff` — :func:`diff_bundles` compares two
  bundles: deterministic-metric divergence, ranked timing deltas,
  span-path wall-time attribution, and result (meta-count) drift, with
  a count or metric family only one bundle has as a note —
  ``repro diff`` on the CLI.

:mod:`repro.inspect.render` turns models/diffs into the deterministic
text report (``repro inspect``, which also prints the trace's
:func:`~repro.trace.summarize` block) and a self-contained single-file
HTML report.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.inspect.bundle": (
        "BUNDLE_SCHEMA", "MANIFEST_NAME", "RunReporter", "read_manifest",
    ),
    "repro.inspect.diff": (
        "BundleDiff", "MetricDelta", "SpanDelta", "diff_bundles",
    ),
    "repro.inspect.analyzers": ("Finding", "analyze"),
    "repro.inspect.model": ("RunModel", "load_bundle"),
    "repro.inspect.render": (
        "render_diff_html", "render_diff_text", "render_html", "render_text",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
