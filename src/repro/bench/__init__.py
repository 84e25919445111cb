"""Benchmark measurement, versioned bench files, and regression gating.

Three pieces, layered:

* :mod:`repro.bench.schema` -- the versioned ``bench_meta`` JSONL
  schema every ``BENCH_*`` writer shares;
* :mod:`repro.bench.benches` -- the measurement routines behind both
  the ``benchmarks/`` pytest suite and ``python -m repro bench``;
* :mod:`repro.bench.compare` -- the direction-aware baseline gate.
"""

from .benches import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    DEFAULT_WORKLOAD,
    measure_adaptive_suite,
    measure_campaign_suite,
)
from .compare import (
    DEFAULT_TOLERANCE,
    GATED_METRICS,
    MetricCheck,
    compare_baselines,
    regressions,
    render_comparison,
)
from .schema import (
    SCHEMA_VERSION,
    environment_fingerprint,
    meta_record,
    read_bench,
    write_bench,
)

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_TOLERANCE",
    "DEFAULT_TRIALS",
    "DEFAULT_WORKLOAD",
    "GATED_METRICS",
    "MetricCheck",
    "SCHEMA_VERSION",
    "compare_baselines",
    "environment_fingerprint",
    "measure_adaptive_suite",
    "measure_campaign_suite",
    "meta_record",
    "read_bench",
    "regressions",
    "render_comparison",
    "write_bench",
]
