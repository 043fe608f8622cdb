"""Telemetry: labeled metrics, exposition formats, and live monitoring.

The aggregate counterpart of :mod:`repro.trace`.  Quickstart::

    from repro import MetricsRegistry, MultitaskSystem, Obs, UGPUPolicy
    from repro.telemetry import to_prometheus

    registry = MetricsRegistry()
    MultitaskSystem(apps, policy=UGPUPolicy(),
                    obs=Obs(registry=registry)).run()
    print(to_prometheus(registry))

See ``docs/tutorial.md`` ("Watching a run: the telemetry layer") for the
scrape-endpoint and CSV-series workflows.
"""

from repro.telemetry.bridge import fold_exec_stats, registry_from_trace
from repro.telemetry.merge import merge_registry, snapshot_registry
from repro.telemetry.exposition import (
    BUILD_INFO_METRIC,
    parse_prometheus,
    to_json,
    to_prometheus,
    validate_prometheus_file,
    write_json,
    write_prometheus,
)
from repro.telemetry.metrics import (
    CYCLE_BUCKETS,
    SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.provenance import collect_provenance, config_hash, stamp
from repro.telemetry.series import (
    CsvSampler,
    read_provenance,
    read_series,
    series_values,
)
from repro.telemetry.server import MetricsServer

__all__ = [
    "BUILD_INFO_METRIC",
    "CYCLE_BUCKETS",
    "SECONDS_BUCKETS",
    "Counter",
    "CsvSampler",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsServer",
    "collect_provenance",
    "config_hash",
    "fold_exec_stats",
    "merge_registry",
    "parse_prometheus",
    "read_provenance",
    "read_series",
    "registry_from_trace",
    "series_values",
    "snapshot_registry",
    "stamp",
    "to_json",
    "to_prometheus",
    "validate_prometheus_file",
    "write_json",
    "write_prometheus",
]
