"""The single-event-upset (SEU) fault model (paper Section 2.1, 7.1).

Exactly one bit flip in one architectural integer register at one
uniformly random point of the dynamic execution:

* the *dynamic instruction* index is uniform over the golden run's
  instruction count;
* the *register* is uniform over the injectable GPRs -- all 32 except
  the stack pointer, which the paper's infrastructure also excluded
  (our register allocator, like theirs, emits unprotected frame/spill
  code through it); there is no TOC register in this ISA;
* the *bit* is uniform over the 64 bit positions.

Floating-point registers are neither protected nor injected
(paper Section 7.1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..isa.registers import NUM_GPRS, STACK_POINTER_INDEX

#: GPR indices eligible for injection.
INJECTABLE_GPRS = tuple(
    i for i in range(NUM_GPRS) if i != STACK_POINTER_INDEX
)


@dataclass(frozen=True)
class FaultSite:
    """One SEU: flip ``bit`` of ``r<reg_index>`` after ``dynamic_index``
    instructions have executed."""

    dynamic_index: int
    reg_index: int
    bit: int

    fault_model = "register-seu"

    def __post_init__(self) -> None:
        if self.reg_index == STACK_POINTER_INDEX:
            raise ValueError("stack pointer is excluded from injection")
        if not 0 <= self.bit < 64:
            raise ValueError(f"bit out of range: {self.bit}")
        if self.dynamic_index < 0:
            raise ValueError("dynamic index must be non-negative")

    def inject(self, machine) -> None:
        """Flip the bit in a machine paused at the site."""
        machine.flip_register_bit(self.reg_index, self.bit)


def sample_fault_site(rng: random.Random, dynamic_instructions: int
                      ) -> FaultSite:
    """Draw one fault site uniformly, per the SEU model."""
    if dynamic_instructions <= 0:
        raise ValueError("golden run executed no instructions")
    return FaultSite(
        dynamic_index=rng.randrange(dynamic_instructions),
        reg_index=rng.choice(INJECTABLE_GPRS),
        bit=rng.randrange(64),
    )


def sample_sites(seed: int, dynamic_instructions: int, count: int
                 ) -> list[FaultSite]:
    """A reproducible batch of fault sites."""
    rng = random.Random(seed)
    return [sample_fault_site(rng, dynamic_instructions) for _ in range(count)]
