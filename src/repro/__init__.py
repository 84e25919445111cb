"""repro: a full reproduction of "Automatic Instruction-Level
Software-Only Recovery" (Chang, Reis, August -- DSN 2006).

The package implements the paper's three recovery techniques (SWIFT-R,
TRUMP, MASK), their hybrids, and the SWIFT detection baseline as
compiler passes over a virtual RISC ISA, together with every substrate
the evaluation needs: a mini-C compiler, static analyses, a linear-scan
register allocator, an architectural simulator with an ILP timing
model, and an SEU fault-injection campaign harness.

Quick start::

    from repro import compile_source, protect, Technique
    from repro.transform import allocate_program
    from repro.faults import run_campaign

    program = compile_source("int main() { print(42); return 0; }")
    hardened = allocate_program(protect(program, Technique.SWIFTR))
    result = run_campaign(hardened, trials=250, seed=0)
    print(result.unace_percent)
"""

from ._lazy import lazy_exports

__version__ = "0.1.0"

#: Each public name and the submodule that defines it, loaded on the
#: name's first use.
_EXPORTS = {
    "Machine": "sim",
    "Outcome": "faults",
    "PAPER_BENCHMARKS": "workloads",
    "PAPER_TECHNIQUES": "transform",
    "ProtectionConfig": "transform",
    "ReproError": "errors",
    "RunResult": "sim",
    "RunStatus": "sim",
    "Technique": "transform",
    "VoteStyle": "transform",
    "WORKLOADS": "workloads",
    "allocate_program": "transform",
    "compile_source": "lang",
    "measure_cycles": "sim",
    "protect": "transform",
    "run_campaign": "faults",
    "run_program": "sim",
}

__all__ = [*lazy_exports(__name__, _EXPORTS), "__version__"]
