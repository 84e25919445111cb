"""Telemetry sinks: JSONL export and an in-memory summary renderer.

Every telemetry record is one flat JSON object per line with a ``kind``
discriminator (``trial``, ``span``, ``timing``, ``metric``, ...).
JSONL keeps the sink append-only -- campaigns can stream records as
trials finish, shards can concatenate their files, and ``python -m
repro obs summarize`` can render any mix of kinds.  See
``docs/observability.md`` for the field-by-field schema.
:func:`load_telemetry` is the one reader.
"""

from __future__ import annotations

import gzip
import io
import json
import os
from typing import Iterable

from ..errors import TelemetryError
from .emit import Table
from .metrics import DEFAULT_LATENCY_BUCKETS, Histogram


class JsonlSink:
    """Append telemetry records to a JSONL file (opened lazily).

    Writes are buffered (``buffer_size`` records per flush) so that
    event-heavy producers like taint tracing do not pay one filesystem
    call per record.  The buffer is flushed on :meth:`flush`,
    :meth:`close`, and on ``with``-block exit **including when an
    exception is unwinding** -- a crashed campaign still leaves every
    record it produced on disk.

    Paths ending in ``.gz`` are written gzip-compressed (and read back
    transparently by :func:`load_telemetry`), keeping multi-million-event
    taint streams manageable.

    ``atomic=True`` writes to ``<path>.tmp.<pid>`` and renames onto
    ``path`` only on a clean :meth:`close`: readers never observe a
    half-written file, and a killed writer leaves the target absent (or
    its previous version intact) instead of truncated.  The run
    registry stores every artifact this way.  Atomic ``.gz`` files are
    additionally byte-deterministic: the gzip header carries no
    filename and a zeroed mtime, so identical records always produce
    identical bytes -- a property content-addressed storage needs and
    plain ``gzip.open`` (which stamps the wall clock) cannot give.
    """

    def __init__(self, path: str, buffer_size: int = 256,
                 atomic: bool = False) -> None:
        self.path = path
        self.buffer_size = max(buffer_size, 1)
        self.atomic = atomic
        self._handle = None
        self._raw = None
        self._buffer: list[str] = []
        self.written = 0

    @property
    def compressed(self) -> bool:
        return str(self.path).endswith(".gz")

    @property
    def _write_path(self) -> str:
        if self.atomic:
            return f"{self.path}.tmp.{os.getpid()}"
        return str(self.path)

    def open(self) -> None:
        """Open (and truncate) the file now instead of on first write."""
        if self._handle is None:
            if self.compressed and self.atomic:
                self._raw = open(self._write_path, "wb")
                self._handle = io.TextIOWrapper(
                    gzip.GzipFile(filename="", mode="wb",
                                  fileobj=self._raw, mtime=0),
                    encoding="utf-8")
            elif self.compressed:
                self._handle = gzip.open(self._write_path, "wt",
                                         encoding="utf-8")
            else:
                self._handle = open(self._write_path, "w")

    def write(self, record: dict) -> None:
        self._buffer.append(json.dumps(record, separators=(",", ":")))
        self.written += 1
        if len(self._buffer) >= self.buffer_size:
            self.flush()

    def write_many(self, records: Iterable[dict]) -> None:
        for record in records:
            self.write(record)

    def flush(self) -> None:
        """Push buffered records to the file."""
        if self._buffer:
            self.open()
            self._handle.write("\n".join(self._buffer))
            self._handle.write("\n")
            self._buffer = []
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        self.flush()
        if self._handle is not None:
            self._handle.close()
            self._handle = None
            if self._raw is not None:
                # TextIOWrapper closes the GzipFile it wraps, but a
                # GzipFile built on an explicit fileobj never closes it.
                self._raw.close()
                self._raw = None
            if self.atomic:
                os.replace(self._write_path, self.path)

    def abort(self) -> None:
        """Close without publishing (atomic mode): the temp file is
        flushed and left on disk for post-mortems, the target path is
        never touched.  Plain sinks fall back to :meth:`close`."""
        if not self.atomic:
            self.close()
            return
        self.flush()
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        if self._raw is not None:
            self._raw.close()
            self._raw = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # Deliberately unconditional for plain sinks: an exception
        # mid-campaign must not discard the records already produced.
        # Atomic sinks instead withhold the rename, so readers never
        # see the interrupted write as a complete artifact.
        if exc_type is not None:
            self.abort()
        else:
            self.close()
        return False


def load_telemetry(path: str) -> list[dict]:
    """Load every record of a JSONL telemetry file (``.gz`` included),
    with diagnostics instead of tracebacks.

    Every telemetry reader uses this, so a half-written file from a
    killed campaign produces one ``repro: error: <path>:<line>: ...``
    line and exit status 2 (mapped in ``repro.__main__.main``), not a
    JSONDecodeError stack.  An empty file is an error too:
    every producer writes at least one record, so "no records" means
    the reader was pointed at the wrong file or a crashed writer.
    """
    opener = gzip.open if str(path).endswith(".gz") else open
    records: list[dict] = []
    try:
        with opener(path, "rt") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except ValueError:
                    raise TelemetryError(
                        f"{path}:{lineno}: truncated or corrupt JSONL "
                        "record (campaign killed mid-write?)") from None
    except TelemetryError:
        raise
    except EOFError:
        raise TelemetryError(
            f"{path}: truncated gzip stream (writer still running, or "
            "killed before close?)") from None
    except OSError as exc:
        detail = getattr(exc, "strerror", None) or exc
        raise TelemetryError(f"cannot read {path}: {detail}") from None
    if not records:
        raise TelemetryError(f"{path}: no telemetry records (empty file)")
    return records


# ------------------------------------------------------------------ summary
def _group_key(record: dict) -> str:
    parts = [str(record[key]) for key in ("benchmark", "technique")
             if key in record]
    return "/".join(parts) or "(all)"


def _render_trials(trials: list[dict]) -> list[Table]:
    sections = []
    counts: dict[str, int] = {}
    recovered = 0
    for record in trials:
        counts[record["outcome"]] = counts.get(record["outcome"], 0) + 1
        if record.get("recovered"):
            recovered += 1
    total = len(trials)
    rows = [
        [outcome, n, f"{100.0 * n / total:6.2f}"]
        for outcome, n in sorted(counts.items(), key=lambda kv: -kv[1])
    ]
    sections.append(Table(
        title=f"Campaign outcomes ({total} trials, "
              f"recovery fired in {recovered})",
        columns=["outcome", "count", "percent"], rows=rows,
    ))

    groups = sorted({_group_key(r) for r in trials})
    if len(groups) > 1:
        rows = []
        for group in groups:
            members = [r for r in trials if _group_key(r) == group]
            n = len(members)
            c = {}
            for r in members:
                c[r["outcome"]] = c.get(r["outcome"], 0) + 1
            lats = [r["detection_latency"] for r in members
                    if r["detection_latency"] is not None]
            mean = f"{sum(lats) / len(lats):9.1f}" if lats else "-"
            rows.append([
                group, n,
                f"{100.0 * c.get('unACE', 0) / n:6.2f}",
                f"{100.0 * c.get('SEGV', 0) / n:6.2f}",
                f"{100.0 * (c.get('SDC', 0) + c.get('Hang', 0)) / n:6.2f}",
                mean,
            ])
        sections.append(Table(
            title="Per-cell breakdown",
            columns=["cell", "trials", "unACE%", "SEGV%", "SDC%",
                     "mean latency"],
            rows=rows,
        ))

    latencies = [r["detection_latency"] for r in trials
                 if r.get("detection_latency") is not None]
    if latencies:
        histogram = Histogram("detection_latency", DEFAULT_LATENCY_BUCKETS)
        for value in latencies:
            histogram.observe(value)
        width = 32
        peak = max(histogram.counts)
        rows = []
        edges = ([f"<={b}" for b in histogram.buckets]
                 + [f">{histogram.buckets[-1]}"])
        for edge, n in zip(edges, histogram.counts):
            bar = "#" * round(width * n / peak) if peak else ""
            rows.append([edge, n, bar])
        sections.append(Table(
            title=f"Detection latency: {len(latencies)} detected trials, "
                  f"mean {histogram.mean:.1f} dynamic instructions",
            columns=["latency (instrs)", "count", ""], rows=rows,
        ))
    return sections


def _render_spans(spans: list[dict]) -> list[Table]:
    totals: dict[str, list[float]] = {}
    child_time: dict[str, float] = {}
    for record in spans:
        totals.setdefault(record["name"], []).append(record["duration"])
        parent = record.get("parent")
        if parent:
            child_time[parent] = (child_time.get(parent, 0.0)
                                  + record["duration"])
    rows = []
    for name, durations in sorted(totals.items(),
                                  key=lambda kv: -sum(kv[1])):
        total = sum(durations)
        # Self time: total minus time attributed to child spans.
        # Clamped at zero -- children recorded without their parent
        # (e.g. a truncated export) could otherwise go negative.
        self_time = max(total - child_time.get(name, 0.0), 0.0)
        rows.append([name, len(durations), f"{total:8.3f}",
                     f"{self_time:8.3f}",
                     f"{1e3 * total / len(durations):9.3f}"])
    tables = [Table(
        title=f"Spans ({len(spans)} recorded)",
        columns=["span", "count", "total s", "self s", "mean ms"],
        rows=rows,
    )]
    # Equal instructions share one step closure, and equal timing rows
    # one tuple, across machines (repro.sim.machine); each machine's
    # sim.compile span counts the distinct steps it holds and the rows
    # it added to the shared table.
    compiled = [record for record in spans
                if record["name"] == "sim.compile"
                and "distinct_steps" in record]
    if compiled:
        instructions = sum(record["instructions"] for record in compiled)
        steps = sum(record["distinct_steps"] for record in compiled)
        rows = sum(record.get("new_rows", 0) for record in compiled)
        tables.append(Table(
            title="Compiled code (distinct steps counted per machine)",
            columns=["machines", "instructions", "distinct steps",
                     "steps per instruction", "new timing rows"],
            rows=[[len(compiled), instructions, steps,
                   f"{steps / max(instructions, 1):.3f}", rows]],
        ))
    return tables


def _render_timing(cells: list[dict]) -> list[Table]:
    rows = [
        [record.get("benchmark", "?"), record.get("technique", "?"),
         record.get("cycles", 0), record.get("instructions", 0),
         f"{record.get('ipc', 0.0):4.2f}"]
        for record in cells
    ]
    return [Table(
        title="Timing cells",
        columns=["benchmark", "technique", "cycles", "instrs", "ipc"],
        rows=rows,
    )]


def summary_tables(records: list[dict]) -> list[Table]:
    """Aggregate a telemetry record list into report tables."""
    by_kind: dict[str, list[dict]] = {}
    for record in records:
        by_kind.setdefault(record.get("kind", "?"), []).append(record)
    tables: list[Table] = []
    if "trial" in by_kind:
        tables += _render_trials(by_kind["trial"])
    if "timing" in by_kind:
        tables += _render_timing(by_kind["timing"])
    if "span" in by_kind:
        tables += _render_spans(by_kind["span"])
    leftover = {kind: items for kind, items in by_kind.items()
                if kind not in ("trial", "timing", "span")}
    if leftover:
        # Kinds this renderer has no dedicated table for (new producers,
        # taint streams): show count and field names so the file's
        # contents stay discoverable instead of vanishing.
        rows = []
        for kind, items in sorted(leftover.items()):
            keys = sorted({key for record in items[:50] for key in record
                           if key != "kind"})
            sample = ", ".join(keys[:6])
            if len(keys) > 6:
                sample += ", ..."
            rows.append([kind, len(items), sample])
        tables.append(Table(
            title="Other records",
            columns=["kind", "count", "sample keys"], rows=rows,
        ))
    return tables


def summarize_records(records: list[dict], fmt: str = "text") -> str:
    """Render a telemetry record list as tables (text or JSON)."""
    from .emit import emit_tables

    return emit_tables(summary_tables(records), fmt,
                       kind="telemetry_summary",
                       meta={"records": len(records)},
                       empty="(no telemetry records)")

