"""Snapshot and merge :class:`MetricsRegistry` state across processes.

Pool workers capture metrics into a private registry; the orchestrator
cannot share the live object across the process boundary, so the worker
side serialises its registry with :func:`snapshot_registry` (a plain
list of dicts — picklable, JSON-able, schema-stable) and the
orchestrator folds each snapshot into its own registry with
:func:`merge_registry`.

Merge semantics, per family kind:

* **counter** — exact sums.  Folding worker snapshots in job order
  makes the merged aggregates deterministic, so a serial run and a
  ``--jobs 2`` run of the same fleet produce byte-identical
  expositions.
* **histogram** — exact elementwise bucket sums (plus ``sum`` and
  ``count``).  A snapshot whose bucket boundaries disagree with the
  orchestrator's family is a schema conflict: summing misaligned
  buckets would silently corrupt quantiles, so the merge raises a
  :class:`~repro.errors.TelemetryError` naming the family instead.
* **gauge** — last-write-wins in merge order.  Gauges are point-in-time
  readings; summing them (e.g. two workers' queue depths sampled at
  different instants) has no meaning.

Kind or label-name conflicts are likewise fatal: they mean two
processes disagree about what a family *is*, which is a bug, not data.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.errors import ConfigError, TelemetryError
from repro.telemetry.metrics import MetricsRegistry

_COUNTER = "counter"
_GAUGE = "gauge"
_HISTOGRAM = "histogram"


def snapshot_registry(registry: MetricsRegistry) -> List[Dict[str, Any]]:
    """Serialise every family into a picklable list of plain dicts.

    Each entry carries ``name``/``kind``/``help``/``labels`` (and
    ``buckets`` for histograms) plus the per-child ``samples`` in
    insertion order, so :func:`merge_registry` can rebuild the family
    exactly and detect schema drift.
    """
    snapshot: List[Dict[str, Any]] = []
    for family in registry.families():
        entry: Dict[str, Any] = {
            "name": family.name,
            "kind": family.kind,
            "help": family.help,
            "labels": list(family.label_names),
        }
        if family.kind == _HISTOGRAM:
            entry["buckets"] = list(family.buckets)
        samples: List[Dict[str, Any]] = []
        for label_values, child in family.samples():
            sample: Dict[str, Any] = {"labels": list(label_values)}
            if family.kind == _HISTOGRAM:
                sample["counts"] = list(child.counts)
                sample["sum"] = child.sum
                sample["count"] = child.count
            else:
                sample["value"] = child.value
            samples.append(sample)
        entry["samples"] = samples
        snapshot.append(entry)
    return snapshot


def _make_family(registry: MetricsRegistry, entry: Dict[str, Any]):
    labels = tuple(entry["labels"])
    kind = entry["kind"]
    try:
        if kind == _COUNTER:
            return registry.counter(entry["name"], entry["help"], labels)
        if kind == _GAUGE:
            return registry.gauge(entry["name"], entry["help"], labels)
        if kind == _HISTOGRAM:
            return registry.histogram(
                entry["name"], entry["help"], labels,
                buckets=tuple(entry["buckets"]),
            )
    except ConfigError as exc:
        raise TelemetryError(
            f"cannot merge family {entry['name']!r}: {exc}"
        ) from exc
    raise TelemetryError(
        f"cannot merge family {entry['name']!r}: unknown kind {kind!r}"
    )


def _check_compatible(family, entry: Dict[str, Any]) -> None:
    name = entry["name"]
    if family.kind != entry["kind"]:
        raise TelemetryError(
            f"cannot merge {name!r}: registered as {family.kind} but "
            f"snapshot says {entry['kind']}"
        )
    if tuple(family.label_names) != tuple(entry["labels"]):
        raise TelemetryError(
            f"cannot merge {name!r}: label names differ "
            f"({list(family.label_names)} vs {entry['labels']})"
        )
    if family.kind == _HISTOGRAM:
        theirs = tuple(float(b) for b in entry["buckets"])
        ours = tuple(float(b) for b in family.buckets)
        if ours != theirs:
            raise TelemetryError(
                f"cannot merge histogram {name!r}: conflicting bucket "
                f"boundaries ({list(ours)} vs {list(theirs)})"
            )


def merge_registry(
    registry: MetricsRegistry,
    snapshot: Sequence[Dict[str, Any]],
) -> int:
    """Fold a worker snapshot into ``registry``; returns samples merged."""
    merged = 0
    for entry in snapshot:
        family = registry.get(entry["name"])
        if family is None:
            family = _make_family(registry, entry)
        else:
            _check_compatible(family, entry)
        for sample in entry["samples"]:
            child = family.labels(*sample["labels"])
            if family.kind == _HISTOGRAM:
                counts = sample["counts"]
                if len(counts) != len(child.counts):
                    raise TelemetryError(
                        f"cannot merge histogram {entry['name']!r}: "
                        f"bucket count mismatch ({len(child.counts)} vs "
                        f"{len(counts)})"
                    )
                for index, value in enumerate(counts):
                    child.counts[index] += int(value)
                child.sum += float(sample["sum"])
                child.count += int(sample["count"])
            elif family.kind == _COUNTER:
                child.value += float(sample["value"])
            else:  # gauge: last write wins in merge order
                child.value = float(sample["value"])
            merged += 1
    return merged
