"""Opcode-bit fault injection (the paper's vulnerability class 3).

Section 3.2 of the paper identifies faults to instruction *opcode bits*
as a window no register-level software scheme can fully close: a flip
can turn any instruction into a store or a branch, corrupting memory or
control flow before any check runs.  The paper discusses these faults
but does not inject them; this module performs the experiment.

Model: one bit of one dynamic instruction's 64-bit encoding flips in
fetch.  The corrupted word is decoded (possibly into a different legal
instruction, possibly into garbage = an illegal-instruction fault) and
executes for exactly that one dynamic instance; the stored program is
unharmed afterwards, per the transient-fault model.

An :class:`OpcodeFaultSite` injects itself into a paused machine, so
opcode campaigns run through the same trial kernel as the paper's
register SEUs (:mod:`repro.faults.trials`): checkpointed, spliced on
re-convergence, JIT-capable, logged and shardable.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass

from ..isa.encoding import (
    EncodedFunction,
    IllegalEncoding,
    decode_instruction,
    encode_function,
    encode_instruction,
)
from ..isa.program import Program
from ..sim.events import GuestTrap, RunResult, RunStatus, TrapKind
from ..sim.machine import Machine
from .campaign import CampaignResult, run_campaign
from .injector import golden_run

#: Program -> {function name -> encoding}, built once per program.
_ENCODINGS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _encodings(program: Program) -> dict[str, EncodedFunction]:
    encodings = _ENCODINGS.get(program)
    if encodings is None:
        encodings = _ENCODINGS[program] = {
            fn.name: encode_function(fn) for fn in program}
    return encodings


@dataclass(frozen=True)
class OpcodeFaultSite:
    """Flip ``bit`` of the encoding of the instruction executing after
    ``dynamic_index`` instructions."""

    dynamic_index: int
    bit: int

    fault_model = "opcode"

    def __post_init__(self) -> None:
        if not 0 <= self.bit < 64:
            raise ValueError(f"bit out of range: {self.bit}")
        if self.dynamic_index < 0:
            raise ValueError("dynamic index must be non-negative")

    def inject(self, machine: Machine) -> RunResult | None:
        """Execute the paused machine's next instruction decoded from
        the flipped word; a word that does not decode traps."""
        victim = machine.next_instruction()
        if victim is None:
            return None
        func = machine._position[0]
        enc = _encodings(machine.program)[func.name]
        try:
            mutated = decode_instruction(
                encode_instruction(victim, enc) ^ (1 << self.bit), enc)
            # Targets must resolve within this machine's universe; a
            # branch whose flipped index names a non-block (or a call
            # naming a non-function) is a decode fault too.
            if (mutated.label is not None
                    and mutated.label not in func.block_index):
                raise GuestTrap(TrapKind.ILLEGAL,
                                f"branch to non-label {mutated.label!r}")
            if (mutated.callee is not None
                    and mutated.callee not in machine.functions):
                raise GuestTrap(TrapKind.ILLEGAL,
                                f"call to non-function {mutated.callee!r}")
            return machine.step_injected(mutated)
        except IllegalEncoding as exc:
            return machine._finish(RunStatus.TRAPPED,
                                   GuestTrap(TrapKind.ILLEGAL, str(exc)))
        except GuestTrap as trap:
            return machine._finish(RunStatus.TRAPPED, trap)


def sample_opcode_sites(seed: int, dynamic_instructions: int, count: int
                        ) -> list[OpcodeFaultSite]:
    """The seeded sites :func:`run_opcode_campaign` draws."""
    rng = random.Random(seed)
    return [OpcodeFaultSite(dynamic_index=rng.randrange(dynamic_instructions),
                            bit=rng.randrange(64))
            for _ in range(count)]


def run_opcode_campaign(
    program: Program,
    trials: int = 250,
    seed: int = 0,
    machine: Machine | None = None,
) -> CampaignResult:
    """An SEU campaign against instruction encodings instead of
    registers; outcomes use the same unACE/SEGV/SDC taxonomy."""
    machine = machine or Machine(program)
    sites = sample_opcode_sites(seed, golden_run(machine).instructions,
                                trials)
    return run_campaign(program, sites=sites, machine=machine)
