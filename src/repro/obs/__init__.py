"""Unified telemetry: spans, metrics, and per-trial campaign telemetry.

The measurement substrate for everything quantitative in this repo:

* :mod:`repro.obs.spans` -- timed regions of pipeline work with a
  context-manager API and a process-global collector;
* :mod:`repro.obs.metrics` -- counters, gauges, and fixed-bucket
  histograms in a process-global registry;
* :mod:`repro.obs.campaign_log` -- one structured record per
  fault-injection trial, including detection latency;
* :mod:`repro.obs.sink` -- JSONL export, the telemetry reader, and
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
* :mod:`repro.obs.registry` -- the persistent campaign ledger:
  content-addressed run manifests + artifacts under ``.repro/runs/``,
  cross-run diffing, and reliability history (``obs runs`` / ``obs
  diff`` / ``obs history``).

Telemetry is **off by default**; ``enable()`` switches on span and
metric collection process-wide.  Campaign logs are explicit (pass a
:class:`CampaignLog` to ``run_campaign``), so the per-trial capture
never costs anything when nobody asked for it.
"""

from .._lazy import lazy_exports

#: Each public name and the submodule that defines it, loaded on the
#: name's first use.
_EXPORTS = {
    "ATLAS_SCHEMA_VERSION": "atlas",
    "Atlas": "atlas",
    "AtlasAccumulator": "atlas",
    "CampaignLog": "campaign_log",
    "Counter": "metrics",
    "DEFAULT_LATENCY_BUCKETS": "metrics",
    "ForensicsReport": "forensics",
    "Gauge": "metrics",
    "Histogram": "metrics",
    "JsonlSink": "sink",
    "MECHANISMS": "forensics",
    "MetricsRegistry": "metrics",
    "REGISTRY_SCHEMA_VERSION": "registry",
    "RegistryError": "registry",
    "RunRegistry": "registry",
    "SimProfiler": "profile",
    "StoredRun": "registry",
    "TelemetryError": "sink",
    "Span": "spans",
    "SpanCollector": "spans",
    "Table": "emit",
    "TrialRecord": "campaign_log",
    "analyze_log": "forensics",
    "analyze_records": "forensics",
    "atlas_from_records": "atlas",
    "chrome_trace": "trace_export",
    "classify_trial": "forensics",
    "collect_site_locations": "atlas",
    "collector": "spans",
    "diff_tables": "registry",
    "emit_tables": "emit",
    "detection_icount": "campaign_log",
    "detection_latency": "campaign_log",
    "disable": "spans",
    "enable": "spans",
    "enabled": "spans",
    "export_trace": "trace_export",
    "export_trace_path": "trace_export",
    "forensics_path": "forensics",
    "history_tables": "registry",
    "load_telemetry": "sink",
    # The metrics accessor; the ledger is the ``registry`` submodule.
    "registry": "metrics",
    "render_hotspots": "profile",
    "render_report": "forensics",
    "runs_tables": "registry",
    "span": "spans",
    "store_campaign": "registry",
    "store_timing": "registry",
    "summarize_records": "sink",
}

__all__ = lazy_exports(__name__, _EXPORTS)
