"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
letting genuine bugs (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class IRError(ReproError):
    """Malformed intermediate representation."""


class VerificationError(IRError):
    """The IR verifier found a structural violation."""


class ParseError(ReproError):
    """Textual assembly or mini-C source could not be parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"line {line}:{column}: {message}"
        super().__init__(message)


class SemanticError(ReproError):
    """Mini-C semantic analysis failure (type error, undefined name, ...)."""

    def __init__(self, message: str, line: int = 0) -> None:
        self.line = line
        if line:
            message = f"line {line}: {message}"
        super().__init__(message)


class CodegenError(ReproError):
    """Mini-C code generation failure."""


class TransformError(ReproError):
    """A protection pass could not be applied."""


class RegisterAllocationError(ReproError):
    """Register allocation failed (e.g. unsatisfiable constraints)."""


class SimulationError(ReproError):
    """The simulator reached an illegal state that is a *library* bug.

    Note that guest-program failures (segmentation faults, division by
    zero) are *not* exceptions: they are outcomes, reported via
    :class:`repro.sim.machine.RunResult`.
    """


class WorkloadError(ReproError):
    """A benchmark workload is misconfigured."""


class ShardLostError(ReproError):
    """A campaign shard's worker process died before reporting its
    trials (killed, or out of memory); the campaign cannot complete."""


class SpecError(ReproError, ValueError):
    """A campaign spec that cannot be validated or executed (an
    out-of-range knob, for one)."""
