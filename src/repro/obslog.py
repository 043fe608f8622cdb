"""Structured JSONL logging with fleet correlation IDs.

The trace layer answers *when*, the metrics layer answers *how much*;
this module answers *what happened, to which job, on which node, in
which process* — the greppable narrative stream a production fleet
operator tails.  Every record is one flat JSON object per line, so the
stream is machine-parseable and the CI smoke test can validate it
against the correlation-ID schema.

Correlation fields
------------------
Every record carries ``run_id`` (one simulation run, derived from
:func:`repro.telemetry.provenance.config_hash` so serial and sharded
runs of the same configuration correlate) and ``pid`` (the emitting OS
process).  Records scoped to a shard, node or job additionally carry
``shard_id`` / ``node_id`` / ``job_id`` — the same IDs stamped onto
merged trace events and worker metric snapshots, so one ``grep job_id``
crosses all three streams.  ``job_id`` always names an arriving job; an
executor ``job.*`` record carries its job's position in the run as
``index``.

Like the trace recorder and the metrics registry, the logger reaches
every instrumented component through its :class:`~repro.obs.Obs`
handle, which is off by default, keeping the unobserved path
byte-identical and overhead-free.  Most records are events: the handle
writes each event :data:`repro.obs.LOGGED` names as the record
``<category>.<name>`` (``fleet.admit``, ``fleet.round``,
``migration.execute``, ``job.<policy>:<mix>``, ``health.<kind>``...),
with the event time as ``now``, a span's ``duration`` and the event's
args as fields.  ``obs.info`` writes the few facts no event carries
(``exec.run``, ``fleet.run``, ``fleet.result``).

Usage::

    log = ObsLogger("fleet.log.jsonl", run_id=run_id)
    fleet_log = log.bind(placement="least-fragmented")
    fleet_log.info("fleet.round", round=3, wait=7)
    log.close()
"""

from __future__ import annotations

import copy
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Union

from repro.errors import TelemetryError
from repro.ioutil import open_text

#: The cross-stream correlation fields (also stamped onto merged trace
#: events).  ``run_id`` and ``pid`` appear on every record; the rest
#: appear whenever the record is scoped to a shard / node / job.
CORRELATION_FIELDS = ("run_id", "shard_id", "node_id", "job_id", "pid")

#: Fields every record must carry (the schema the CI smoke validates).
REQUIRED_FIELDS = ("ts", "level", "event", "run_id", "pid")

#: Expected JSON types for correlation fields, when present.
_FIELD_TYPES = {
    "run_id": str,
    "shard_id": str,
    "node_id": int,
    "job_id": int,
    "pid": int,
}


class ObsLogger:
    """Structured logger carrying a bound correlation context.

    Parameters
    ----------
    path:
        JSONL output file (opened for writing; ``.gz`` paths stream
        through gzip, see :mod:`repro.ioutil`; the owner's
        :meth:`close` closes it).
    run_id:
        The run-level correlation ID stamped on every record.
    clock:
        Injectable wall-clock (tests pass a fake for exact timestamps).
    """

    def __init__(
        self,
        path,
        *,
        run_id: str,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if not run_id:
            raise TelemetryError("obslog needs a non-empty run_id")
        try:
            self._stream = open_text(path, "w")
        except OSError as exc:
            raise TelemetryError(
                f"cannot open obslog file {path!r}: {exc}"
            ) from exc
        self._clock = clock
        #: The logger that owns the stream and counts its records.
        self._owner = self
        self._written = 0
        self.context: Dict[str, Any] = {"run_id": str(run_id)}

    @property
    def run_id(self) -> str:
        return self.context["run_id"]

    @property
    def records_written(self) -> int:
        return self._owner._written

    def bind(self, **fields: Any) -> "ObsLogger":
        """A child view sharing the stream, with ``fields`` merged into
        the correlation context (``None`` values are skipped).  Only the
        constructing logger's :meth:`close` closes the file."""
        child = copy.copy(self)
        child.context = dict(self.context)
        for key, value in fields.items():
            if value is not None:
                child.context[key] = value
        return child

    def _write(self, level: str, event: str, fields: Dict[str, Any]) -> None:
        """Write one record: schema envelope + context + ``fields``.

        ``None``-valued fields are dropped so call sites can pass
        optional IDs unconditionally.
        """
        payload: Dict[str, Any] = {
            "ts": round(float(self._clock()), 6),
            "level": level,
            "event": str(event),
            "pid": os.getpid(),
        }
        payload.update(self.context)
        for key, value in fields.items():
            if value is not None:
                payload[key] = value
        self._stream.write(
            json.dumps(payload, sort_keys=True, default=str) + "\n")
        self._stream.flush()
        self._owner._written += 1

    def debug(self, event: str, **fields: Any) -> None:
        self._write("debug", event, fields)

    def info(self, event: str, **fields: Any) -> None:
        self._write("info", event, fields)

    def warning(self, event: str, **fields: Any) -> None:
        self._write("warning", event, fields)

    def close(self) -> None:
        """Flush and close the stream (no-op on a :meth:`bind` child)."""
        if self._owner is self and not self._stream.closed:
            self._stream.close()


def read_obslog(path, strict: bool = True,
                errors: Optional[List[str]] = None) -> List[Dict[str, Any]]:
    """Read a JSONL log back into a list of record mappings.

    With ``strict=True`` (the default) malformed lines raise
    :class:`~repro.errors.TelemetryError` — a log that cannot be parsed
    is a telemetry failure, not a config problem.  With ``strict=False``
    malformed lines — the torn final record a killed run leaves behind,
    mirroring :func:`repro.telemetry.series.read_series` — are skipped,
    and each skip is *reported* by appending a ``path:line: reason``
    message to ``errors`` (when a list is passed) so loaders can surface
    the truncation instead of silently losing evidence.

    ``.gz`` paths decompress transparently.
    """
    records: List[Dict[str, Any]] = []
    with open_text(path, "r") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                if strict:
                    raise TelemetryError(
                        f"{path}:{line_no}: malformed obslog record: {exc}"
                    ) from exc
                if errors is not None:
                    errors.append(
                        f"{path}:{line_no}: malformed obslog record: {exc}"
                    )
                continue
            if not isinstance(record, dict):
                if strict:
                    raise TelemetryError(
                        f"{path}:{line_no}: obslog record must be an object, "
                        f"got {type(record).__name__}"
                    )
                if errors is not None:
                    errors.append(
                        f"{path}:{line_no}: obslog record must be an "
                        f"object, got {type(record).__name__}"
                    )
                continue
            records.append(record)
    return records


def validate_obslog_file(path) -> int:
    """Validate a JSONL log against the correlation-ID schema.

    Every record must carry :data:`REQUIRED_FIELDS`; any correlation
    field present must have its declared type.  Returns the record
    count; raises :class:`~repro.errors.TelemetryError` naming the
    first offending record.
    """
    records = read_obslog(path)
    for number, record in enumerate(records, start=1):
        for name in REQUIRED_FIELDS:
            if name not in record:
                raise TelemetryError(
                    f"{path}: record {number} is missing required "
                    f"field {name!r}"
                )
        for name, expected in _FIELD_TYPES.items():
            value = record.get(name)
            if value is None:
                continue
            if expected is int:
                ok: Union[bool, Any] = (
                    isinstance(value, int) and not isinstance(value, bool)
                )
            else:
                ok = isinstance(value, expected)
            if not ok:
                raise TelemetryError(
                    f"{path}: record {number} field {name!r} must be "
                    f"{expected.__name__}, got {type(value).__name__}"
                )
        if not record["run_id"]:
            raise TelemetryError(
                f"{path}: record {number} has an empty run_id"
            )
    return len(records)
