"""Telemetry: labeled metrics, exposition formats and CSV series.

The aggregate counterpart of :mod:`repro.trace`.  Quickstart::

    from repro import MetricsRegistry, MultitaskSystem, Obs, UGPUPolicy
    from repro.telemetry import to_prometheus

    registry = MetricsRegistry()
    MultitaskSystem(apps, policy=UGPUPolicy(),
                    obs=Obs(registry=registry)).run()
    print(to_prometheus(registry))

See ``docs/tutorial.md`` ("Watching a run: the telemetry layer") for the
exposition-file and CSV-series workflows.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.telemetry.exposition": (
        "BUILD_INFO_METRIC", "parse_prometheus", "to_json", "to_prometheus",
        "validate_prometheus_file", "write_json", "write_prometheus",
    ),
    "repro.telemetry.metrics": (
        "CYCLE_BUCKETS", "SECONDS_BUCKETS", "Counter", "Gauge", "Histogram",
        "MetricsRegistry",
    ),
    "repro.telemetry.series": (
        "CsvSampler", "read_provenance", "read_series", "series_values",
    ),
    "repro.telemetry.provenance": (
        "collect_provenance", "config_hash", "stamp",
    ),
    "repro.telemetry.bridge": ("fold_exec_stats", "registry_from_trace"),
    "repro.telemetry.merge": ("merge_registry", "snapshot_registry"),
}

__all__, __getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
