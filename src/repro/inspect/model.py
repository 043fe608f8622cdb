"""Unified in-memory model of one captured run.

:func:`load_bundle` reads every artifact a ``--report-dir`` bundle
recorded and reconstructs typed objects: trace events become
:class:`~repro.trace.recorder.TraceEvent` records, the profiler phase
aggregate is folded back into a live
:class:`~repro.profiling.PhaseProfiler` (so ``tree()``/``flat()`` self
vs cumulative attribution works post hoc) and ExecStats round-trips
through its dict form.  Artifacts the loader does not read are ignored,
so a bundle whose manifest names a retired artifact still loads.

Everything stays keyed by the correlation IDs stamped at capture time:
:meth:`RunModel.shard_ids` / :meth:`RunModel.workers` walk the merged
trace events' ``shard_id``/``worker``/``pid`` args, so analyzers and
the differ can attribute findings to the process that produced the
evidence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ConfigError
from repro.inspect.bundle import read_manifest
from repro.ioutil import open_text

PathLike = Union[str, Path]

#: Flattened metric-sample key: (sample name, sorted ``k=v`` label text).
MetricKey = Tuple[str, str]


@dataclass
class RunModel:
    """One loaded run bundle (see :func:`load_bundle`)."""

    path: Path
    manifest: Dict[str, Any]
    #: Merged trace events (orchestrator + absorbed worker spans).
    events: List = field(default_factory=list)
    #: Raw metrics snapshot document (``to_json`` layout), or None.
    metrics: Optional[Dict[str, Any]] = None
    #: Rebuilt phase profiler (aggregate only), or None.
    profile: Optional[Any] = None
    exec_stats: Optional[Any] = None
    #: The command's deterministic results payload, or None.
    results: Optional[Dict[str, Any]] = None

    # -- manifest accessors -------------------------------------------
    @property
    def run_id(self) -> str:
        return str(self.manifest.get("run_id", ""))

    @property
    def command(self) -> str:
        return str(self.manifest.get("command", ""))

    @property
    def kernel_backend(self) -> str:
        return str(self.manifest.get("kernel_backend", ""))

    @property
    def dropped_events(self) -> int:
        return int(self.manifest.get("dropped_events", 0))

    @property
    def provenance(self) -> Dict[str, str]:
        return dict(self.manifest.get("provenance", {}))

    # -- correlation-ID views -----------------------------------------
    def shard_ids(self) -> List[str]:
        """Distinct ``shard_id`` tokens, first-appearance order."""
        seen: Dict[str, None] = {}
        for event in self.events:
            shard = event.args.get("shard_id")
            if shard is not None and shard not in seen:
                seen[shard] = None
        return list(seen)

    def workers(self) -> Dict[str, Optional[int]]:
        """``worker token -> OS pid`` for every capturing process seen
        (absorbed events carry both as ``worker`` and ``pid``)."""
        out: Dict[str, Optional[int]] = {}
        for event in self.events:
            token = event.args.get("worker")
            if token is not None and token not in out:
                out[token] = event.args.get("pid")
        return out

    def fleet_events(self, name: Optional[str] = None) -> List:
        """Orchestrator ``fleet``-category events, optionally by name."""
        return [
            e for e in self.events
            if e.category == "fleet" and (name is None or e.name == name)
        ]

    # -- metric flattening --------------------------------------------
    def metric_families(self) -> Dict[str, Dict[MetricKey, float]]:
        """Every metric sample flattened to ``(name, labels) -> value``,
        grouped by family: ``family name -> samples``.

        Histograms contribute ``_sum``/``_count`` plus one ``_bucket``
        sample per cumulative bound, mirroring the Prometheus exposition
        — so two runs diverge on exactly the samples a scrape would
        show diverging.  A family without samples maps to ``{}``.
        """
        families: Dict[str, Dict[MetricKey, float]] = {}
        if self.metrics is None:
            return families
        for family in self.metrics.get("metrics", []):
            name = family["name"]
            out = families.setdefault(name, {})
            for sample in family.get("samples", []):
                labels = ";".join(
                    f"{k}={v}"
                    for k, v in sorted(sample.get("labels", {}).items())
                )
                if "buckets" in sample:
                    for bucket in sample["buckets"]:
                        le = bucket["le"]
                        key = (
                            f"{name}_bucket",
                            f"{labels};le={le}" if labels else f"le={le}",
                        )
                        out[key] = float(bucket["count"])
                    out[(f"{name}_sum", labels)] = float(sample["sum"])
                    out[(f"{name}_count", labels)] = float(sample["count"])
                else:
                    out[(name, labels)] = float(sample["value"])
        return families


def _load_profile(payload: Dict[str, Any]):
    from repro.profiling import PhaseProfiler

    profiler = PhaseProfiler()
    snapshot = {
        str(path): (int(calls), float(cum))
        for path, (calls, cum) in payload.get("phases", {}).items()
    }
    profiler.absorb(snapshot)
    return profiler


def load_bundle(directory: PathLike) -> RunModel:
    """Reconstruct a :class:`RunModel` from a bundle directory."""
    root = Path(directory)
    manifest = read_manifest(root)
    model = RunModel(path=root, manifest=manifest)
    artifacts = manifest["artifacts"]

    def _path(name: str) -> Optional[Path]:
        filename = artifacts.get(name)
        if filename is None:
            return None
        path = root / filename
        if not path.is_file():
            raise ConfigError(
                f"{root}: manifest names {name} artifact {filename!r} "
                "but the file is missing"
            )
        return path

    trace_path = _path("trace")
    if trace_path is not None:
        from repro.trace import read_jsonl

        model.events = read_jsonl(trace_path)

    metrics_path = _path("metrics")
    if metrics_path is not None:
        with open_text(metrics_path, "r") as handle:
            try:
                model.metrics = json.load(handle)
            except ValueError as exc:
                raise ConfigError(
                    f"{metrics_path}: not valid JSON: {exc}"
                ) from exc

    profile_path = _path("profile")
    if profile_path is not None:
        with open_text(profile_path, "r") as handle:
            try:
                payload = json.load(handle)
            except ValueError as exc:
                raise ConfigError(
                    f"{profile_path}: not valid JSON: {exc}"
                ) from exc
        model.profile = _load_profile(payload)

    stats_path = _path("exec_stats")
    if stats_path is not None:
        from repro.exec.stats import ExecStats

        with open_text(stats_path, "r") as handle:
            model.exec_stats = ExecStats.from_dict(json.load(handle))

    results_path = _path("results")
    if results_path is not None:
        with open_text(results_path, "r") as handle:
            try:
                model.results = json.load(handle)
            except ValueError as exc:
                raise ConfigError(
                    f"{results_path}: not valid JSON: {exc}"
                ) from exc
    return model
