"""Unified telemetry: spans, metrics, and per-trial campaign telemetry.

The measurement substrate for everything quantitative in this repo:

* :mod:`repro.obs.spans` -- timed regions of pipeline work with a
  context-manager API and a process-global collector;
* :mod:`repro.obs.metrics` -- counters, gauges, and fixed-bucket
  histograms in a process-global registry;
* :mod:`repro.obs.campaign_log` -- one structured record per
  fault-injection trial, including detection latency;
* :mod:`repro.obs.sink` -- JSONL export, versioned bench files, and
  the summary renderer behind ``python -m repro obs summarize``;
* :mod:`repro.obs.forensics` -- per-trial fault-mechanism
  classification over taint streams (``obs forensics``);
* :mod:`repro.obs.trace_export` -- Chrome ``trace_event`` JSON export
  (``obs export-trace``);
* :mod:`repro.obs.profile` -- deterministic simulator hot-path
  profiler and JIT-candidate report (``obs hotspots``);
* :mod:`repro.obs.emit` -- the shared table model behind every report
  renderer's ``--format text|json`` switch;
* :mod:`repro.obs.atlas` -- program-anchored reliability maps: per
  instruction outcome tallies, population-weighted, with escape-route
  edges (``obs atlas``);
* :mod:`repro.obs.convergence` -- stratum coverage and CI-convergence
  audit over adaptive telemetry (``obs convergence``);
* :mod:`repro.obs.registry` -- the persistent campaign ledger:
  content-addressed run manifests + artifacts under ``.repro/runs/``,
  cross-run diffing, and reliability history (``obs runs`` / ``obs
  diff`` / ``obs history``).

Telemetry is **off by default**; ``enable()`` switches on span and
metric collection process-wide.  Campaign logs are explicit (pass a
:class:`CampaignLog` to ``run_campaign``), so the per-trial capture
never costs anything when nobody asked for it.
"""

from .atlas import (
    ATLAS_SCHEMA_VERSION,
    Atlas,
    AtlasAccumulator,
    atlas_from_records,
    collect_site_locations,
)
from .campaign_log import (
    CampaignLog,
    TrialRecord,
    detection_icount,
    detection_latency,
)
from .convergence import convergence_tables
from .emit import Table, emit_tables
from .forensics import (
    MECHANISMS,
    ForensicsReport,
    analyze_log,
    analyze_records,
    classify_trial,
    forensics_path,
    render_report,
)
from .metrics import (
    Counter,
    DEFAULT_LATENCY_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
)
from .profile import SimProfiler, render_hotspots
from .registry import (
    REGISTRY_SCHEMA_VERSION,
    RegistryError,
    RunRegistry,
    StoredRun,
    diff_tables,
    history_tables,
    runs_tables,
    store_campaign,
    store_timing,
)
from .sink import (
    JsonlSink,
    TelemetryError,
    load_telemetry,
    read_jsonl,
    summarize_path,
    summarize_records,
    write_bench,
)

# Importing the ``repro.obs.registry`` submodule above rebound this
# package's ``registry`` attribute from the metrics accessor to the
# module object; restore the long-standing public name.
from .metrics import registry  # noqa: E402, F811
from .spans import Span, SpanCollector, collector, disable, enable, enabled, span
from .trace_export import chrome_trace, export_trace, export_trace_path

__all__ = [
    "ATLAS_SCHEMA_VERSION",
    "Atlas",
    "AtlasAccumulator",
    "CampaignLog",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "ForensicsReport",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MECHANISMS",
    "MetricsRegistry",
    "REGISTRY_SCHEMA_VERSION",
    "RegistryError",
    "RunRegistry",
    "SimProfiler",
    "StoredRun",
    "TelemetryError",
    "Span",
    "SpanCollector",
    "Table",
    "TrialRecord",
    "analyze_log",
    "analyze_records",
    "atlas_from_records",
    "chrome_trace",
    "classify_trial",
    "collect_site_locations",
    "collector",
    "convergence_tables",
    "diff_tables",
    "emit_tables",
    "detection_icount",
    "detection_latency",
    "disable",
    "enable",
    "enabled",
    "export_trace",
    "export_trace_path",
    "forensics_path",
    "history_tables",
    "load_telemetry",
    "read_jsonl",
    "registry",
    "render_hotspots",
    "render_report",
    "runs_tables",
    "span",
    "store_campaign",
    "store_timing",
    "summarize_path",
    "summarize_records",
    "write_bench",
]
