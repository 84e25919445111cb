"""Wild-jump (program-counter) fault injection.

The paper explicitly assumes no PC faults (Section 2) and leaves
control-flow protection to a separate, composable mechanism.  This
module provides the missing fault model so that mechanism
(:mod:`repro.transform.controlflow`) can be evaluated: at a uniformly
random dynamic instruction, control teleports to a uniformly random
(block, instruction) position of the *current* function -- a corrupted
branch target / program counter.

A :class:`WildJumpSite` injects itself into a paused machine, so
wild-jump campaigns run through the same trial kernel as the paper's
register SEUs (:mod:`repro.faults.trials`): checkpointed, spliced on
re-convergence, JIT-capable, logged and shardable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..isa.program import Program
from ..sim.machine import Machine
from .campaign import CampaignResult, run_campaign
from .injector import golden_run


@dataclass(frozen=True)
class WildJumpSite:
    """After ``dynamic_index`` instructions, jump somewhere random
    (derived deterministically from ``target_seed``)."""

    dynamic_index: int
    target_seed: int

    fault_model = "wild-jump"

    def __post_init__(self) -> None:
        if self.dynamic_index < 0:
            raise ValueError("dynamic index must be non-negative")

    def inject(self, machine: Machine) -> None:
        """Move the paused machine to a random position of its
        current function."""
        func = machine._position[0]
        rng = random.Random(self.target_seed)
        block_idx = rng.randrange(len(func.blocks))
        instr_idx = rng.randrange(len(func.blocks[block_idx].steps))
        machine._position = (func, block_idx, instr_idx)


def sample_wild_jump_sites(seed: int, dynamic_instructions: int, count: int
                           ) -> list[WildJumpSite]:
    """The seeded sites :func:`run_wild_jump_campaign` draws."""
    rng = random.Random(seed)
    return [WildJumpSite(dynamic_index=rng.randrange(dynamic_instructions),
                         target_seed=rng.getrandbits(32))
            for _ in range(count)]


def run_wild_jump_campaign(
    program: Program,
    trials: int = 250,
    seed: int = 0,
    machine: Machine | None = None,
) -> CampaignResult:
    """A campaign of single wild jumps, classified against the golden
    run with the usual taxonomy (DETECTED counts CFC successes)."""
    machine = machine or Machine(program)
    sites = sample_wild_jump_sites(seed, golden_run(machine).instructions,
                                   trials)
    return run_campaign(program, sites=sites, machine=machine)
