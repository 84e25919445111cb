"""Export campaign telemetry as a Chrome ``trace_event`` JSON file.

The Trace Event Format (chrome://tracing, Perfetto, speedscope) is the
lingua franca for timeline visualisation, so ``python -m repro obs
export-trace telemetry.jsonl`` turns a campaign's records into a file
those tools open directly.  Two process rows are emitted:

* **pid 1 -- wall-clock spans**: every ``span`` record becomes a
  complete duration event (``ph: "X"``) on the real-time axis,
  microseconds since the collector epoch.
* **pid 2 -- campaign timeline**: the time axis is *dynamic
  instructions*, one microsecond per instruction.  Each trial is a
  duration event from its injection icount to the end of the faulty
  run, on its own thread row (``tid`` = trial index), and each taint
  event is a thread-scoped instant (``ph: "i"``) at its icount -- so a
  trial's row reads left-to-right as the story of its fault: created,
  propagated, checked, voted-out / escaped.

Only the JSON-object form (``{"traceEvents": [...]}``) is produced; it
is the strict superset every consumer accepts.
"""

from __future__ import annotations

import json

#: Keys of a taint event record that become ``args`` in the trace.
_TAINT_ARG_KEYS = ("loc", "instr", "role", "addr", "segment", "reg", "bit")

#: Keys of a trial record that become ``args`` in the trace.
_TRIAL_ARG_KEYS = ("benchmark", "technique", "reg_index", "bit",
                   "outcome", "status", "recovered", "detection_latency")


def _metadata(pid: int, name: str) -> dict:
    return {"ph": "M", "pid": pid, "tid": 0, "ts": 0,
            "name": "process_name", "args": {"name": name}}


def _span_event(record: dict) -> dict:
    args = {key: value for key, value in record.items()
            if key not in ("kind", "name", "start", "duration")}
    return {
        "ph": "X", "pid": 1, "tid": 1,
        "name": record.get("name", "span"),
        "ts": round(record.get("start", 0.0) * 1e6, 3),
        "dur": round(record.get("duration", 0.0) * 1e6, 3),
        "args": args,
    }


def _trial_event(record: dict) -> dict:
    injected = record.get("dynamic_index", 0)
    end = record.get("instructions", injected)
    return {
        "ph": "X", "pid": 2, "tid": record.get("trial", 0),
        "name": f"trial {record.get('trial', '?')}: "
                f"{record.get('outcome', '?')}",
        "ts": injected,
        "dur": max(end - injected, 1),
        "args": {key: record[key] for key in _TRIAL_ARG_KEYS
                 if key in record},
    }


def _taint_event(record: dict) -> dict:
    return {
        "ph": "i", "s": "t", "pid": 2, "tid": record.get("trial", 0),
        "name": record.get("event", "taint"),
        "ts": record.get("icount", 0),
        "args": {key: record[key] for key in _TAINT_ARG_KEYS
                 if key in record},
    }


def to_trace_events(records: list[dict]) -> list[dict]:
    """Convert telemetry records to a ``traceEvents`` list.

    Record kinds without a timeline representation (``metric``,
    ``timing``, ``taint_summary``, bench cells) are skipped.
    """
    events = [
        _metadata(1, "wall-clock spans"),
        _metadata(2, "campaign timeline (dynamic instructions)"),
    ]
    for record in records:
        kind = record.get("kind")
        if kind == "span":
            events.append(_span_event(record))
        elif kind == "trial":
            events.append(_trial_event(record))
        elif kind == "taint":
            events.append(_taint_event(record))
    return events


def chrome_trace(records: list[dict]) -> dict:
    """The complete trace document for a telemetry record list."""
    return {"traceEvents": to_trace_events(records),
            "displayTimeUnit": "ms"}


def export_trace(records: list[dict], out_path: str) -> int:
    """Write the trace JSON; returns the number of trace events."""
    trace = chrome_trace(records)
    with open(out_path, "w") as handle:
        json.dump(trace, handle, separators=(",", ":"))
        handle.write("\n")
    return len(trace["traceEvents"])


def export_trace_path(path: str, out_path: str) -> int:
    """Convert a JSONL telemetry file into a Chrome trace file."""
    from .sink import load_telemetry

    return export_trace(load_telemetry(path), out_path)
