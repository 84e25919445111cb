"""Experiment drivers that regenerate the paper's figures."""

from .._lazy import lazy_exports

#: Each public name and the submodule that defines it, loaded on the
#: name's first use.
_EXPORTS = {
    "DEFAULT_TRIALS": "reliability",
    "FunctionProfile": "profile",
    "MAX_INSTRUCTIONS": "pipeline",
    "PerformanceResults": "performance",
    "PipelineOptions": "pipeline",
    "ReliabilityResults": "reliability",
    "build_binary": "pipeline",
    "evaluate_performance": "performance",
    "evaluate_reliability": "reliability",
    "overhead_by_function": "profile",
    "prepare": "pipeline",
    "prepare_machine": "pipeline",
    "profile_workload": "profile",
    "render_profile": "profile",
    "render_figure8": "reliability",
    "render_figure9": "performance",
}

__all__ = lazy_exports(__name__, _EXPORTS)
