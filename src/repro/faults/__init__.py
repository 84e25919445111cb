"""Fault-injection methodology: fault models (site types), the trial
kernel, campaigns and their statistics."""

from .campaign import CampaignResult, run_batch, run_campaign, run_sites
from .controlflow_faults import (
    WildJumpSite,
    run_wild_jump_campaign,
    sample_wild_jump_sites,
)
from .injector import (
    CheckpointStore,
    FullReplay,
    build_checkpoints,
    fault_landed,
    golden_run,
    run_with_fault,
)
from .model import FaultSite, INJECTABLE_GPRS, sample_fault_site, sample_sites
from .opcode_faults import (
    OpcodeFaultSite,
    run_opcode_campaign,
    sample_opcode_sites,
)
from .outcomes import Outcome, classify
from .parallel import default_jobs
from .stats import Proportion, geometric_mean
from .trials import engine, run_trials

__all__ = [
    "CampaignResult",
    "CheckpointStore",
    "FaultSite",
    "FullReplay",
    "INJECTABLE_GPRS",
    "OpcodeFaultSite",
    "Outcome",
    "Proportion",
    "build_checkpoints",
    "classify",
    "default_jobs",
    "engine",
    "fault_landed",
    "geometric_mean",
    "golden_run",
    "run_batch",
    "run_campaign",
    "run_opcode_campaign",
    "run_sites",
    "run_trials",
    "run_wild_jump_campaign",
    "run_with_fault",
    "sample_fault_site",
    "sample_opcode_sites",
    "sample_sites",
    "sample_wild_jump_sites",
    "WildJumpSite",
]
