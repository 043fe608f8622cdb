"""Trace exporters: JSONL (machine-readable) and Chrome-trace (visual).

Two formats cover the two consumers:

* **JSONL** — one :meth:`~repro.trace.recorder.TraceEvent.to_dict`
  record per line.  Greppable, streamable, round-trippable
  (:func:`read_jsonl` reconstructs the exact event list), and the format
  the CI smoke test validates.
* **Chrome trace** — the ``chrome://tracing`` / `Perfetto
  <https://ui.perfetto.dev>`_ JSON object format.  ``span`` events
  become complete (``"ph": "X"``) slices, ``instant`` events become
  global instants (``"ph": "i"``); rows (``tid``) are one per category,
  with per-app sub-rows when the event carries an ``app_id``.

Simulation-layer timestamps are GPU cycles; Chrome traces want
microseconds, so :func:`chrome_trace` divides by ``clock_ghz * 1000``
cycles-per-microsecond (default 1 GHz, so 1 ms of trace = 1M cycles).

Paths ending in ``.gz`` are read and written gzip-compressed (see
:mod:`repro.ioutil`); fleet-scale JSONL traces shrink roughly 20x.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Union

from repro.errors import ConfigError
from repro.ioutil import open_text
from repro.trace.recorder import KIND_SPAN, TraceEvent

PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def write_jsonl(events: Iterable[TraceEvent], path: PathLike) -> int:
    """Write one JSON record per line; returns the number written."""
    count = 0
    with open_text(path, "w") as handle:
        for event in events:
            handle.write(json.dumps(event.to_dict(), sort_keys=True))
            handle.write("\n")
            count += 1
    return count


def read_jsonl(path: PathLike) -> List[TraceEvent]:
    """Read a JSONL trace back into :class:`TraceEvent` records."""
    events: List[TraceEvent] = []
    with open_text(path, "r") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(TraceEvent.from_dict(json.loads(line)))
            except (ValueError, KeyError) as exc:
                raise ConfigError(
                    f"{path}:{line_no}: malformed trace record: {exc}"
                ) from exc
    return events


# ----------------------------------------------------------------------
# Chrome trace (chrome://tracing, Perfetto)
# ----------------------------------------------------------------------
def _pid_table(events: Sequence[TraceEvent]) -> Dict[str, int]:
    """Stable Chrome pids for merged multi-process events.

    Events absorbed from pool workers carry a ``worker`` token — a
    per-process UUID, *not* the OS pid, because the OS recycles pids
    across rounds and keying on one would interleave two different
    workers' spans onto one track.  Each distinct token gets Chrome pid
    1..N in first-appearance order; pid 0 is the orchestrator.
    """
    table: Dict[str, int] = {}
    for event in events:
        token = event.args.get("worker")
        if token is not None and token not in table:
            table[token] = len(table) + 1
    return table


def _row_key(event: TraceEvent, pids: Dict[str, int]) -> tuple:
    """(chrome_pid, category, sub-row) — the track an event renders on."""
    pid = pids.get(event.args.get("worker"), 0)
    if event.category == "node":
        sub = event.args.get("node_id")
    else:
        sub = event.args.get("app_id")
    return (pid, event.category, sub)


def _tid_table(
    events: Sequence[TraceEvent], pids: Dict[str, int]
) -> Dict[tuple, int]:
    """Stable row ids, one per (pid, category, sub-row), in first-
    appearance order so the Perfetto track layout is deterministic."""
    table: Dict[tuple, int] = {}
    for event in events:
        row = _row_key(event, pids)
        if row not in table:
            table[row] = len(table)
    return table


def chrome_trace(
    events: Sequence[TraceEvent], clock_ghz: float = 1.0
) -> Dict[str, Any]:
    """Build the Chrome-trace JSON object for ``events``.

    The result loads directly in ``chrome://tracing`` and Perfetto.
    Merged multi-process traces (fleet runs with worker capture) place
    orchestrator events on pid 0 and each worker's events on its own
    pid track, named after the worker's OS pid; single-process traces
    keep the original pid-0-only layout.
    """
    if clock_ghz <= 0:
        raise ConfigError(f"clock_ghz must be positive, got {clock_ghz}")
    cycles_per_us = clock_ghz * 1000.0
    pids = _pid_table(events)
    rows = _tid_table(events, pids)
    trace_events: List[Dict[str, Any]] = []
    if pids:
        trace_events.append({
            "ph": "M", "pid": 0, "tid": 0, "name": "process_name",
            "args": {"name": "orchestrator"},
        })
        os_pids: Dict[str, Any] = {}
        for event in events:
            token = event.args.get("worker")
            if token is not None and token not in os_pids:
                os_pids[token] = event.args.get(
                    "pid", event.args.get("worker_pid"))
        for token, chrome_pid in sorted(pids.items(), key=lambda kv: kv[1]):
            trace_events.append({
                "ph": "M", "pid": chrome_pid, "tid": 0,
                "name": "process_name",
                "args": {"name": f"worker-{chrome_pid} (pid {os_pids[token]})"},
            })
    for (pid, category, sub), tid in sorted(rows.items(), key=lambda kv: kv[1]):
        if sub is None:
            label = category
        elif category == "node":
            label = f"node {sub}"
        else:
            label = f"{category} (app {sub})"
        trace_events.append({
            "ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
            "args": {"name": label},
        })
    for event in events:
        pid, _, _ = row = _row_key(event, pids)
        tid = rows[row]
        record: Dict[str, Any] = {
            "name": event.name,
            "cat": event.category,
            "pid": pid,
            "tid": tid,
            "ts": event.time / cycles_per_us,
            "args": dict(event.args),
        }
        if event.kind == KIND_SPAN:
            record["ph"] = "X"
            record["dur"] = event.duration / cycles_per_us
        else:
            record["ph"] = "i"
            record["s"] = "t"  # thread-scoped instant
        trace_events.append(record)
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.trace", "clock_ghz": clock_ghz},
    }


def write_chrome_trace(
    events: Sequence[TraceEvent], path: PathLike, clock_ghz: float = 1.0
) -> int:
    """Write the Chrome-trace JSON; returns the number of trace events."""
    payload = chrome_trace(events, clock_ghz=clock_ghz)
    with open_text(path, "w") as handle:
        json.dump(payload, handle)
    return len(payload["traceEvents"])
