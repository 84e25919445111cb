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

from ..isa.instruction import Role
from ..isa.operands import MASK64
from .events import RunResult, RunStatus
from .loop import hooks, merge, render
from .machine import MAX_INSTRUCTIONS, Machine


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

    def __post_init__(self) -> None:
        for name, least in (("width", 1), ("cache_sets", 1),
                            ("line_bytes", 1), ("load_hit_latency", 0),
                            ("miss_penalty", 0), ("taken_branch_penalty", 0),
                            ("call_penalty", 0)):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"TimingConfig.{name} must be at least "
                                 f"{least}, not {value}")
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError("TimingConfig.line_bytes must be a power of "
                             f"two, not {self.line_bytes}")


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


#: The cycle model as hooks on the shared run loop (:mod:`repro.sim.loop`).
#: Before each step: scoreboard issue, role count, data cache, result
#: latency.  A call also waits for its sources past the second.  Taken
#: branches, calls and returns add front-end bubbles, and a return's
#: value is ready one cycle after it lands.
_TIMED = hooks(
    setup="""
        config = tm.config
        width = config.width
        hit_latency = config.load_hit_latency
        miss_penalty = config.miss_penalty
        line_shift = config.line_bytes.bit_length() - 1
        num_sets = config.cache_sets
        regs, float_base = self.regs, self.float_slot_base
        ready, tags, role_counts = tm.ready, tm.tags, tm.role_counts
        cycle, used, loads, misses = tm.cycle, tm.used, tm.loads, tm.misses
    """,
    enter_block="metas = block.meta",
    before_step="""
        is_load, out, a, b, latency, offset, role = metas[i]
        earliest = ready[a]
        if ready[b] > earliest:
            earliest = ready[b]
        if earliest > cycle:
            cycle = earliest
            used = 0
        elif used >= width:
            cycle += 1
            used = 0
        used += 1
        role_counts[role] += 1
        if offset is not None:
            line = ((regs[a] + offset) & MASK64) >> line_shift
            set_idx = line % num_sets
            if is_load:
                loads += 1
                if tags[set_idx] != line:
                    latency = miss_penalty
                    misses += 1
                else:
                    latency = hit_latency
            tags[set_idx] = line
        if out >= 0:
            ready[out] = cycle + latency
    """,
    on_branch="""
        cycle += config.taken_branch_penalty
        used = 0
    """,
    on_call="""
        late = block.late_srcs.get(i)
        if late:
            cycle = max(cycle, *[ready[slot] for slot in late])
            if out >= 0:
                ready[out] = cycle + latency
        cycle += config.call_penalty
        used = 0
    """,
    after_ret="""
        if dest >= 0:
            ready[dest + float_base if dest_float else dest] = cycle + 1
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
    on_call="""
        # The call starts once its sources past the second are ready.
        fn_cycles[fname] += cycle - config.call_penalty - last_cycle
        last_cycle = cycle - config.call_penalty
    """,
    on_leave="tm.last_cycle = last_cycle",
))

_run_timed = render("timed", "tm", _TIMED, {"MASK64": MASK64})
_run_attributed = render("attributed", "tm", _ATTRIBUTED, {"MASK64": MASK64})


class _Scoreboard:
    """The cycle model's state across one timing run (the loop's hook):
    lists of ready cycles (the last entry, for a missing source, is never
    written), cache tags (-1: empty) and counts per role."""

    def __init__(self, machine: Machine, config: TimingConfig) -> None:
        self.config = config
        self.ready = [0] * (len(machine.regs) + len(machine.fregs) + 1)
        self.tags = [-1] * config.cache_sets
        self.role_counts = [0] * len(Role)
        self.function_cycles, self.function_instructions = {}, {}
        self.cycle = self.used = self.loads = self.misses = self.last_cycle = 0

    def result(self, run: RunResult) -> TimingResult:
        """The timing of the run that ended in ``run``."""
        return TimingResult(
            cycles=max(self.cycle, 1),
            instructions=run.instructions,
            loads=self.loads,
            load_misses=self.misses,
            status=run.status,
            role_counts={role.value: count for role, count
                         in zip(Role, self.role_counts) if count},
            function_cycles=self.function_cycles,
            function_instructions=self.function_instructions,
        )


class TimingSimulator:
    """Executes a compiled machine while accounting cycles."""

    def __init__(self, machine: Machine, config: TimingConfig | None = None):
        self.machine = machine
        self.config = config or TimingConfig()

    def run(self, profile: bool = False) -> TimingResult:
        """Time one run from reset; the machine ends as ``run()`` ends it."""
        machine = self.machine
        machine.reset()
        board = _Scoreboard(machine, self.config)
        loop = _run_attributed if profile else _run_timed
        return board.result(loop(machine, None, board))


def measure_cycles(program, config: TimingConfig | None = None,
                   max_instructions: int = MAX_INSTRUCTIONS) -> TimingResult:
    """Compile and time one fault-free execution of ``program``."""
    machine = Machine(program, max_instructions=max_instructions)
    return TimingSimulator(machine, config).run()
