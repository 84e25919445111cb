"""Fault-injection methodology: fault models (site types), the trial
kernel, campaigns and their statistics."""

from .._lazy import lazy_exports

#: Each public name and the submodule that defines it, loaded on the
#: name's first use.
_EXPORTS = {
    "CampaignResult": "campaign",
    "CheckpointStore": "injector",
    "FaultSite": "model",
    "FullReplay": "injector",
    "INJECTABLE_GPRS": "model",
    "OpcodeFaultSite": "opcode_faults",
    "Outcome": "outcomes",
    "Proportion": "stats",
    "build_checkpoints": "injector",
    "classify": "outcomes",
    "default_jobs": "parallel",
    "engine": "trials",
    "fault_landed": "injector",
    "geometric_mean": "stats",
    "golden_run": "injector",
    "run_batch": "campaign",
    "run_campaign": "campaign",
    "run_opcode_campaign": "opcode_faults",
    "run_sites": "campaign",
    "run_trials": "trials",
    "run_wild_jump_campaign": "controlflow_faults",
    "run_with_fault": "injector",
    "sample_fault_site": "model",
    "sample_opcode_sites": "opcode_faults",
    "sample_sites": "model",
    "sample_wild_jump_sites": "controlflow_faults",
    "WildJumpSite": "controlflow_faults",
}

__all__ = lazy_exports(__name__, _EXPORTS)
