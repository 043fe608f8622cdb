"""Run bundles: every artifact of one run behind one manifest.

A *run bundle* is a directory holding the full observability capture of
one CLI invocation — trace JSONL, Chrome trace, metrics JSON snapshot,
obslog JSONL, profiler phase aggregate, ExecStats and the command's
deterministic results — indexed by a schema-versioned ``manifest.json``
so loaders (:mod:`repro.inspect.model`) never guess at file names or
formats.

:class:`RunReporter` is the capture side, wired behind ``--report-dir``:
it *shares* whatever sinks the command already constructed from its
other observability flags (``--metrics-out`` registry, ``--trace-out``
recorder, ``--log-jsonl`` obslog) and creates any that are missing, so
one run never splits its evidence across two registries.  With
``compress=True`` the line-oriented artifacts are written ``.gz``
(transparent on read — see :mod:`repro.ioutil`).

The manifest records the correlation ``run_id`` (the same
:func:`~repro.telemetry.provenance.config_hash` the obslog and merged
trace events carry), provenance, the trace drop count (analysis built on
a truncated ring must say so), and per-artifact entry counts.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.errors import ConfigError
from repro.ioutil import open_text

PathLike = Union[str, Path]

#: Version tag checked by :func:`read_manifest`; bump on breaking layout
#: changes so stale bundles fail loudly instead of half-loading.
BUNDLE_SCHEMA = "repro.bundle/1"

MANIFEST_NAME = "manifest.json"


def read_manifest(directory: PathLike) -> Dict[str, Any]:
    """Load and schema-check a bundle's ``manifest.json``."""
    path = Path(directory) / MANIFEST_NAME
    if not path.is_file():
        raise ConfigError(
            f"{directory}: not a run bundle (no {MANIFEST_NAME}); "
            "produce one with --report-dir"
        )
    with open(path, "r", encoding="utf-8") as handle:
        try:
            manifest = json.load(handle)
        except ValueError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    schema = manifest.get("schema") if isinstance(manifest, dict) else None
    if schema != BUNDLE_SCHEMA:
        raise ConfigError(
            f"{path}: schema {schema!r} does not match {BUNDLE_SCHEMA!r}; "
            "regenerate the bundle with --report-dir"
        )
    if not isinstance(manifest.get("artifacts"), dict):
        raise ConfigError(f"{path}: missing 'artifacts' mapping")
    return manifest


class RunReporter:
    """Capture one run's artifacts into a bundle directory.

    Parameters
    ----------
    directory:
        Bundle output directory (created, must be empty of a previous
        manifest or ``overwrite`` must hold).
    command:
        The CLI command name stamped into the manifest (``fleet``...).
    run_id:
        Correlation ID for the run (``config_hash`` of the run shape).
    registry / recorder / obslog:
        Already-constructed sinks to share; any left ``None`` is created
        here.  A shared ``obslog`` writes wherever its owner pointed it —
        pass ``obslog_source`` so :meth:`finish` can copy the closed file
        into the bundle.
    compress:
        Write the line-oriented artifacts gzip-compressed (``.gz``).
    """

    def __init__(
        self,
        directory: PathLike,
        *,
        command: str,
        run_id: str,
        registry=None,
        recorder=None,
        obslog=None,
        obslog_source: Optional[PathLike] = None,
        compress: bool = False,
        overwrite: bool = True,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        manifest = self.directory / MANIFEST_NAME
        if manifest.exists() and not overwrite:
            raise ConfigError(f"{self.directory}: bundle already exists")
        self.command = str(command)
        self.run_id = str(run_id)
        self.compress = bool(compress)
        self._suffix = ".gz" if compress else ""
        self._owns_obslog = obslog is None and obslog_source is None
        self._obslog_source = (
            Path(obslog_source) if obslog_source is not None else None
        )

        if registry is None:
            from repro.telemetry import MetricsRegistry, stamp

            registry = MetricsRegistry()
            stamp(registry, None, command=self.command, run_id=self.run_id)
        self.registry = registry
        if recorder is None:
            from repro.trace import TraceRecorder

            recorder = TraceRecorder(capacity=262_144)
        self.recorder = recorder
        if self._owns_obslog:
            from repro.obslog import ObsLogger

            obslog = ObsLogger(
                self.directory / f"obslog.jsonl{self._suffix}",
                run_id=self.run_id,
            )
        self.obslog = obslog
        from repro.profiling import PhaseProfiler

        self.profiler = PhaseProfiler()
        self._artifacts: Dict[str, str] = {}
        self._counts: Dict[str, int] = {}
        self._finished = False

    # ------------------------------------------------------------------
    # Artifact writers (each registers itself in the manifest)
    # ------------------------------------------------------------------
    def _write_json(self, name: str, filename: str, payload: Any) -> None:
        path = self.directory / filename
        with open_text(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        self._artifacts[name] = filename

    def _write_trace(self) -> None:
        from repro.trace import write_chrome_trace, write_jsonl

        events = self.recorder.events()
        if not events:
            return
        filename = f"trace.jsonl{self._suffix}"
        self._counts["trace_events"] = write_jsonl(
            events, self.directory / filename
        )
        self._artifacts["trace"] = filename
        write_chrome_trace(events, self.directory / "trace.chrome.json")
        self._artifacts["chrome_trace"] = "trace.chrome.json"

    def _write_metrics(self) -> None:
        from repro.telemetry import write_json

        if not self.registry.families() and not self.registry.provenance:
            return
        filename = f"metrics.json{self._suffix}"
        families = write_json(self.registry, self.directory / filename)
        self._artifacts["metrics"] = filename
        self._counts["metric_families"] = families

    def _write_obslog(self) -> None:
        if self.obslog is not None and self._owns_obslog:
            self._counts["obslog_records"] = self.obslog.records_written
            self.obslog.close()
            self._artifacts["obslog"] = f"obslog.jsonl{self._suffix}"
        elif self._obslog_source is not None and self._obslog_source.is_file():
            # The command's own --log-jsonl owns the stream; copy the
            # closed file in so the bundle stays self-contained.
            filename = "obslog.jsonl" + (
                ".gz" if self._obslog_source.suffix == ".gz" else self._suffix
            )
            if self._obslog_source.suffix == ".gz" or not self.compress:
                shutil.copyfile(
                    self._obslog_source, self.directory / filename
                )
            else:
                with open(self._obslog_source, "r", encoding="utf-8") as src:
                    with open_text(self.directory / filename, "w") as dst:
                        shutil.copyfileobj(src, dst)
            self._artifacts["obslog"] = filename

    def _write_profile(self) -> None:
        snapshot = self.profiler.snapshot()
        if not snapshot:
            return
        self._write_json(
            "profile", "profile.json",
            {
                "phases": {
                    path: [calls, round(cum, 9)]
                    for path, (calls, cum) in sorted(snapshot.items())
                },
            },
        )
        self._counts["profile_phases"] = len(snapshot)

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def finish(
        self,
        results: Optional[Dict[str, Any]] = None,
        exec_stats=None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Write every artifact plus the manifest; returns the manifest
        path.  ``results`` is the command's deterministic outcome (the
        differ's meta-count divergence works off it); ``exec_stats`` an
        :class:`~repro.exec.stats.ExecStats`; ``extra`` merges into the
        manifest top level (command flags worth recording)."""
        if self._finished:
            raise ConfigError(f"{self.directory}: bundle already finalized")
        self._finished = True
        self._write_trace()
        self._write_metrics()
        self._write_obslog()
        self._write_profile()
        if exec_stats is not None:
            self._write_json(
                "exec_stats", "exec_stats.json", exec_stats.to_dict()
            )
        if results is not None:
            self._write_json("results", "results.json", results)
        from repro.fastpath import resolve_kernel_backend
        from repro.telemetry.provenance import collect_provenance

        manifest: Dict[str, Any] = {
            "schema": BUNDLE_SCHEMA,
            "command": self.command,
            "run_id": self.run_id,
            "kernel_backend": resolve_kernel_backend(),
            "provenance": collect_provenance(command=self.command),
            "dropped_events": int(self.recorder.dropped),
            "artifacts": dict(sorted(self._artifacts.items())),
            "counts": dict(sorted(self._counts.items())),
        }
        if extra:
            manifest.update(extra)
        path = self.directory / MANIFEST_NAME
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path
