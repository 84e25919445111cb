"""The build pipeline: mini-C -> protect -> register-allocate -> machine.

Mirrors the paper's toolchain position: protection passes run in the
backend immediately before register allocation (Section 7).  Prepared
binaries are cached per (workload, technique, config) because both
evaluation harnesses reuse them heavily.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..isa.program import Program
# MAX_INSTRUCTIONS is re-exported: the instruction cap of every run.
from ..sim.machine import MAX_INSTRUCTIONS, Machine  # noqa: F401
from ..transform.engine import ProtectionConfig, VoteStyle
from ..transform.protect import Technique, protect
from ..transform.regalloc import allocate_program
from ..workloads.suite import build as build_workload


@dataclass(frozen=True)
class PipelineOptions:
    """Knobs threaded through to the protection passes."""

    vote_style: VoteStyle = VoteStyle.BRANCHING
    an_power: int = 2

    def protection_config(self) -> ProtectionConfig:
        return ProtectionConfig(vote_style=self.vote_style,
                                an_power=self.an_power)


def build_binary(
    source_program: Program,
    technique: Technique,
    options: PipelineOptions | None = None,
) -> Program:
    """Protect and register-allocate a virtual-register program."""
    options = options or PipelineOptions()
    return allocate_program(protect(source_program, technique,
                                    options.protection_config()))


@lru_cache(maxsize=256)
def prepare(
    workload: str,
    technique: Technique,
    options: PipelineOptions = PipelineOptions(),
) -> Program:
    """Cached: workload name -> executable protected binary."""
    return build_binary(build_workload(workload), technique, options)


@lru_cache(maxsize=256)
def prepare_machine(
    workload: str,
    technique: Technique,
    options: PipelineOptions = PipelineOptions(),
) -> Machine:
    """Cached: compiled simulator for a prepared binary."""
    return Machine(prepare(workload, technique, options))
