"""In-order superscalar timing model with a small data cache.

The paper measures execution time on a PPC970, a wide out-of-order
machine, and observes that software-TMR costs far less than 3x because
the redundant instructions are independent and soak up spare ILP slots
(Section 7.2).  This model reproduces that mechanism with the standard
scoreboard approximation:

* up to ``width`` instructions issue per cycle, in program order;
* an instruction stalls until its source registers are ready;
* results become ready ``latency`` cycles after issue (per-opcode
  latencies from :mod:`repro.isa.opcodes`);
* loads hit a direct-mapped data cache or pay ``miss_penalty``;
* taken branches and calls/returns insert small front-end bubbles.

The timing executor runs the functional closures of a compiled
:class:`~repro.sim.machine.Machine` through the shared run loop, with
the scoreboard rendered into its hook slots, so cycle counts always
correspond to the real executed path.  It is used fault-free only (the
paper's performance runs inject no faults).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.operands import MASK64
from .events import RunStatus
from .loop import hooks, merge, render
from .machine import Machine


@dataclass(frozen=True)
class TimingConfig:
    """Microarchitectural parameters of the modeled core."""

    width: int = 4                 # issue width (PPC970 is 4-5 wide)
    cache_sets: int = 512          # direct-mapped D-cache: 512 x 64B = 32 KiB
    line_bytes: int = 64
    #: Effective L1-hit load-to-use latency.  The PPC970 is out of order
    #: and hides most of its raw 3-5 cycle L1 latency behind independent
    #: work; an in-order scoreboard has no such slack, so the effective
    #: hit latency is calibrated low to compensate (see DESIGN.md).
    load_hit_latency: int = 1
    miss_penalty: int = 30
    taken_branch_penalty: int = 1
    call_penalty: int = 2


@dataclass
class TimingResult:
    """Cycle-level outcome of one fault-free execution."""

    cycles: int
    instructions: int
    loads: int = 0
    load_misses: int = 0
    status: RunStatus = RunStatus.EXITED
    role_counts: dict[str, int] = field(default_factory=dict)
    #: Per-function issue-cycle attribution (oprofile-style; only
    #: populated when the simulator runs with ``profile=True``).
    function_cycles: dict[str, int] = field(default_factory=dict)
    function_instructions: dict[str, int] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def miss_rate(self) -> float:
        return self.load_misses / self.loads if self.loads else 0.0


#: The cycle model as hooks on the shared run loop (:mod:`repro.sim.loop`).
#: Before each step: scoreboard issue, role count, data cache, result
#: latency.  Taken branches, calls and returns add front-end bubbles, and
#: a return's value is ready one cycle after it lands.
_TIMED = hooks(
    setup="""
        config = tm.config
        width = config.width
        miss_penalty = config.miss_penalty
        line_shift = config.line_bytes.bit_length() - 1
        num_sets = config.cache_sets
        ready, tags, role_counts = tm.ready, tm.tags, tm.role_counts
        cycle, used, loads, misses = tm.cycle, tm.used, tm.loads, tm.misses
    """,
    enter_block="metas = block.meta",
    before_step="""
        is_load, out, srcs, latency, mem, role = metas[i]
        earliest = cycle
        for slot in srcs:
            t = ready.get(slot, 0)
            if t > earliest:
                earliest = t
        if earliest > cycle:
            cycle = earliest
            used = 0
        elif used >= width:
            cycle += 1
            used = 0
        used += 1
        role_counts[role] = role_counts.get(role, 0) + 1
        if mem is not None:
            base, offset = mem
            line = ((self.regs[base] + offset) & MASK64) >> line_shift
            set_idx = line % num_sets
            if is_load:
                loads += 1
                if tags.get(set_idx) != line:
                    latency = miss_penalty
                    misses += 1
                else:
                    latency = config.load_hit_latency
            tags[set_idx] = line
        if out >= 0:
            ready[out] = cycle + latency
    """,
    on_branch="""
        cycle += config.taken_branch_penalty
        used = 0
    """,
    on_call="""
        cycle += config.call_penalty
        used = 0
    """,
    after_ret="""
        if dest >= 0:
            slot = dest + self._FLOAT_SLOT_BASE if dest_float else dest
            ready[slot] = cycle + 1
        cycle += config.call_penalty
        used = 0
    """,
    on_leave="""
        tm.cycle, tm.used = cycle, used
        tm.loads, tm.misses = loads, misses
    """,
)

#: ``run(profile=True)``: also attribute issue cycles to functions.
_ATTRIBUTED = merge(_TIMED, hooks(
    setup="""
        fn_cycles, fn_instrs = tm.function_cycles, tm.function_instructions
        last_cycle = tm.last_cycle
    """,
    before_step="""
        fname = func.name
        fn_cycles[fname] = fn_cycles.get(fname, 0) + cycle - last_cycle
        fn_instrs[fname] = fn_instrs.get(fname, 0) + 1
        last_cycle = cycle
    """,
    on_leave="tm.last_cycle = last_cycle",
))

_run_timed = render("timed", "tm", _TIMED, {"MASK64": MASK64})
_run_attributed = render("attributed", "tm", _ATTRIBUTED, {"MASK64": MASK64})


class _Scoreboard:
    """The cycle model's state across one timing run (the loop's hook)."""

    def __init__(self, config: TimingConfig) -> None:
        self.config = config
        self.ready, self.tags, self.role_counts = {}, {}, {}
        self.function_cycles, self.function_instructions = {}, {}
        self.cycle = self.used = self.loads = self.misses = self.last_cycle = 0


class TimingSimulator:
    """Executes a compiled machine while accounting cycles."""

    def __init__(self, machine: Machine, config: TimingConfig | None = None):
        self.machine = machine
        self.config = config or TimingConfig()

    def run(self, profile: bool = False) -> TimingResult:
        """Time one run from reset; the machine ends as ``run()`` ends it."""
        machine = self.machine
        machine.reset()
        board = _Scoreboard(self.config)
        loop = _run_attributed if profile else _run_timed
        result = loop(machine, None, board)
        return TimingResult(
            cycles=max(board.cycle, 1),
            instructions=result.instructions,
            loads=board.loads,
            load_misses=board.misses,
            status=result.status,
            role_counts=board.role_counts,
            function_cycles=board.function_cycles,
            function_instructions=board.function_instructions,
        )


def measure_cycles(program, config: TimingConfig | None = None,
                   max_instructions: int = 10_000_000) -> TimingResult:
    """Compile and time one fault-free execution of ``program``."""
    machine = Machine(program, max_instructions=max_instructions)
    return TimingSimulator(machine, config).run()
