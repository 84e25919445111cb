"""One child process of a benchmark run: set a workload up, then
measure it.

``run.py`` starts this file several times per run, one process after
another, so every set-up starts with cold compile and JIT caches::

    python3 child.py '{"kind": "fig8-interp", "key": 2006, ...}'

``key`` (the run's seed) picks every input.  A child builds every cell,
then measures its share of them (``part`` of ``parts``, from a seeded
order): one unit of work per cell, a campaign at fixed fault sites or a
timing run, round after round, until at least one round is done and
``budget`` wall seconds have passed.  Each repeat must give the same
outcome counts or cycles as the first.

The last stdout line is one JSON object: the set-up time, each unit's
times, each trial's latency, the deterministic counts the checks
compare, and for traced children the spans.  Every time in it is CPU
time at a fixed host speed (``HostClock``).

Untraced children call only ``prepare_machine``, ``attach_jit``,
``run_campaign`` and ``TimingSimulator``.  Traced children redo the
set-up and one round by calling each layer's public entry point
themselves, with a span around each call.
"""

import bisect
import importlib
import json
import random
import resource
import signal
import statistics
import sys
from contextlib import contextmanager, nullcontext
from time import perf_counter, thread_time

#: Imported before the set-up clock starts.  Set-up is the work before
#: the first operation; import time depends mostly on the host's file
#: cache, and every workload pays the same imports.
LAYERS = (
    "repro.eval.pipeline", "repro.faults.campaign", "repro.faults.injector",
    "repro.faults.outcomes", "repro.isa.verify", "repro.lang",
    "repro.sim.jit", "repro.sim.machine", "repro.sim.timing",
    "repro.transform.optimize", "repro.transform.protect",
    "repro.transform.regalloc", "repro.workloads.suite",
)

#: Times are reported at the host speed at which ``reference_loop``
#: takes this much CPU time: about its median on the 2-vCPU x86-64 VM
#: the baseline was measured on.
REFERENCE_LOOP_S = 1.6e-4
#: How often ``HostClock`` samples the host's speed.
SAMPLE_PERIOD_S = 0.01

# Figure-8 slice on the interpreter.  Left out: twolf/noft, parser/noft
# and parser/trump, whose rare Hang trials (about 1 in 300, 1 in 1000
# and 1 in 2000) each run to the 20M-instruction limit, about 5 s on
# the interpreter, so a round's time would depend on how many hangs the
# seed happened to draw.
FIG8_CELLS = (
    ("mcf", "noft"), ("mcf", "trump"), ("mcf", "swiftr"),
    ("equake", "noft"), ("equake", "trump"), ("equake", "swiftr"),
    ("parser", "swiftr"), ("twolf", "trump"), ("twolf", "swiftr"),
)
#: The paper's count.  A cell's campaign time depends on how many of its
#: sites give faults that are masked late; with 20 trials per cell, ten
#: seeds gave trials/s with a 14% coefficient of variation.
FIG8_TRIALS = 250

# JIT campaigns.  Left out: every cell whose JIT codegen dies with
# MemoryError under a 3.5 GB cap (SWIFT-R on the paper workloads, TRUMP
# on mpeg2enc/mpeg2dec), and TRUMP on mcf, adpcmdec and equake, whose
# codegen alone takes 4-8 s and 0.9-1.6 GB: set up three times per run,
# they would not fit the run's time budget.
JIT_CELLS = (
    ("crc32", "noft"), ("crc32", "trump"), ("crc32", "swiftr"),
    ("mcf", "noft"), ("equake", "noft"), ("adpcmdec", "noft"),
)
JIT_TRIALS = 100
#: Trials re-run on both engines to check the JIT against the interpreter.
JIT_CHECK_TRIALS = 10


def label(cell) -> str:
    return f"{cell[0]}/{cell[1]}"


def fig9_cells() -> list:
    """The Figure-9 grid: every paper benchmark under every technique."""
    from repro.transform.protect import PAPER_TECHNIQUES
    from repro.workloads.suite import PAPER_BENCHMARKS

    return [(bench, tech.value) for bench in PAPER_BENCHMARKS
            for tech in PAPER_TECHNIQUES]


# ------------------------------------------------------------------- clock
class Register:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def add(self, amount: int) -> None:
        self.value = (self.value + amount) & 0xFFFF


def reference_loop(registers: dict) -> None:
    """A small interpreter's inner loop: table dispatch, a method call,
    an attribute update.  It runs no repository code, so no change to
    the repository can change how long it takes.  When the other vCPU
    is loaded, the simulator's CPU time per trial or timing run grows by
    up to 50%, and its ratio to this loop's time stays within 1-5%."""
    x = 1
    for i in range(600):
        x = (x * 1103515245 + 12345) & 63
        registers[x].add(i)


class HostClock:
    """CPU seconds at a fixed host speed.

    Stamps are the main thread's CPU time, which leaves out the time
    the VM was descheduled: the kernel accounts steal time apart.  What
    is left still moves with the host's load, by up to 2x within a
    second.  So a timer signal runs ``reference_loop`` in the main
    thread every ``SAMPLE_PERIOD_S`` and records its CPU time.  The CPU
    time between two samples, less the sampling itself, is scaled by
    ``REFERENCE_LOOP_S`` over the median loop time of the two samples
    before it and the two after.  A duration is the sum of the scaled
    time between its two stamps.
    """

    def __init__(self) -> None:
        self.registers = {index: Register() for index in range(64)}
        #: CPU time at each sample's start, the loop's CPU time, and
        #: the CPU time spent sampling before each sample (and, last,
        #: in all of them).
        self.times: list[float] = []
        self.loops: list[float] = []
        self.spent: list[float] = [0.0]
        #: Filled in by ``_integrate``: where each sample ends, the
        #: scale of the gap after it, and the scaled time at its start.
        self.ends: list[float] = []
        self.scales: list[float] = []
        self.scaled: list[float] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S,
                         SAMPLE_PERIOD_S)
        self._sample()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()

    def _sample(self, *_signal) -> None:
        start = thread_time()
        reference_loop(self.registers)
        loop = thread_time() - start
        self.times.append(start)
        self.loops.append(loop)
        self.spent.append(self.spent[-1] + thread_time() - start)

    @staticmethod
    def now() -> float:
        return thread_time()

    def seconds(self, start: float, end: float) -> float:
        """The time from stamp ``start`` to stamp ``end``; call after
        ``stop``."""
        if len(self.scaled) != len(self.times):
            self._integrate()
        return self._scaled_at(end) - self._scaled_at(start)

    def _integrate(self) -> None:
        """Each gap's scale, and the scaled time at each sample."""
        times, loops, spent = self.times, self.loops, self.spent
        self.ends = [time + spent[i + 1] - spent[i]
                     for i, time in enumerate(times)]
        self.scales = [REFERENCE_LOOP_S
                       / statistics.median(loops[max(i - 1, 0):i + 3])
                       for i in range(len(times))]
        self.scaled = [0.0]
        for i in range(len(times) - 1):
            self.scaled.append(self.scaled[-1] + (times[i + 1] - self.ends[i])
                               * self.scales[i])

    def _scaled_at(self, stamp: float) -> float:
        i = max(bisect.bisect_right(self.times, stamp) - 1, 0)
        return self.scaled[i] + (stamp - self.ends[i]) * self.scales[i]


# ------------------------------------------------------------------ inputs
def stratified_sites(key, unit: str, golden_instructions: int,
                     trials: int) -> list:
    """Fault sites spread evenly over the golden run, the injectable
    registers and the 64 bits.

    Trial ``k`` flips a register and bit fixed per cell, at a point
    ``key`` picks inside the ``k``-th slice of the golden run.  With
    uniform draws the seed would decide how many costly unmasked faults
    a campaign gets, and with it the campaign's time.
    """
    from repro.faults.model import INJECTABLE_GPRS, FaultSite

    rng = random.Random(f"{key}/{unit}")
    layout = random.Random(unit)
    regs, bits = list(INJECTABLE_GPRS), list(range(64))
    sites = []
    for k in range(trials):
        if k % len(regs) == 0:
            layout.shuffle(regs)
        if k % len(bits) == 0:
            layout.shuffle(bits)
        low = k * golden_instructions // trials
        high = max((k + 1) * golden_instructions // trials, low + 1)
        sites.append(FaultSite(dynamic_index=rng.randrange(low, high),
                               reg_index=regs[k % len(regs)],
                               bit=bits[k % len(bits)]))
    return sites


# ----------------------------------------------------------------- tracing
class Tracer:
    """Spans kept in memory, written out by ``run.py`` at exit."""

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}

    @contextmanager
    def span(self, name: str, unit: str = ""):
        record = {"id": len(self.spans),
                  "parent": self._stack[-1] if self._stack else None,
                  "name": name, "unit": unit,
                  "start": self.clock.now(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = self.clock.now()
            self._stack.pop()

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


def span(tracer, name: str, unit: str = ""):
    return nullcontext() if tracer is None else tracer.span(name, unit)


class TrialClock:
    """A ``run_campaign`` monitor that stamps each trial's end."""

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        self.stamps: list[float] = []

    def begin(self, total: int) -> None:
        self.stamps.append(self.clock.now())

    def trial_done(self, done: int) -> None:
        self.stamps.append(self.clock.now())


# ------------------------------------------------------------------ layers
def traced_build(tracer: Tracer, cells) -> dict:
    """Build each cell's machine the way ``prepare_machine`` does, one
    layer call at a time: compile once per workload, then protect,
    allocate, verify and compile the simulator per technique."""
    from repro.eval.pipeline import MAX_INSTRUCTIONS, PipelineOptions
    from repro.isa.verify import verify_program
    from repro.lang import compile_source
    from repro.sim.machine import Machine
    from repro.transform.optimize import optimize_program
    from repro.transform.protect import Technique, protect
    from repro.transform.regalloc import allocate_program
    from repro.workloads.suite import get_workload

    config = PipelineOptions().protection_config()
    sources = {}
    machines = {}
    for cell in cells:
        bench, tech = cell
        unit = label(cell)
        if bench not in sources:
            with tracer.span("lang.compile", bench):
                program = compile_source(get_workload(bench).source)
            with tracer.span("isa.verify", bench):
                verify_program(program)
            with tracer.span("transform.optimize", bench):
                program = optimize_program(program)
            with tracer.span("isa.verify", bench):
                verify_program(program)
            sources[bench] = program
        with tracer.span("transform.protect", unit):
            protected = protect(sources[bench], Technique(tech), config)
        with tracer.span("transform.regalloc", unit):
            binary = allocate_program(protected)
        with tracer.span("isa.verify", unit):
            verify_program(binary, require_physical=True)
        tracer.count("isa.static_instructions", binary.num_instructions())
        with tracer.span("sim.machine.init", unit):
            machines[cell] = Machine(binary,
                                     max_instructions=MAX_INSTRUCTIONS)
    return machines


def prepared(cells) -> dict:
    from repro.eval.pipeline import prepare_machine
    from repro.transform.protect import Technique

    return {cell: prepare_machine(cell[0], Technique(cell[1]))
            for cell in cells}


def traced_jit(tracer: Tracer, machine, unit: str) -> None:
    from repro.sim.jit import attach_jit

    with tracer.span("sim.jit.codegen", unit):
        compiled = attach_jit(machine)
    tracer.count("sim.jit.source_lines",
                 sum(src.count("\n") for src in compiled.sources.values()))


def traced_campaign(tracer: Tracer, machine, trials: int, key,
                    unit: str):
    """``run_campaign``'s trial loop, one layer call at a time."""
    from repro.errors import SimulationError
    from repro.faults.campaign import CampaignResult
    from repro.faults.injector import CheckpointStore, fault_landed
    from repro.faults.outcomes import classify
    from repro.sim.events import RunStatus

    store = CheckpointStore(machine)
    with tracer.span("faults.golden", unit):
        golden = store.build()
    if golden.status is not RunStatus.EXITED:
        raise SimulationError(f"golden run of {unit} ended {golden.status}")
    sites = stratified_sites(key, unit, golden.instructions, trials)
    result = CampaignResult(golden_instructions=golden.instructions)
    for site in sites:
        with tracer.span("faults.trial", unit):
            faulty = store.run_with_fault(site)
        with tracer.span("faults.classify", unit):
            outcome = classify(golden, faulty)
        result.record(outcome, recovered=faulty.recoveries > 0,
                      landed=fault_landed(site, faulty))
    tracer.count("faults.golden_instructions", golden.instructions)
    tracer.count("faults.checkpoints", len(store.snapshots))
    tracer.count("faults.fast_forwards", store.fast_forwards)
    return result


# ---------------------------------------------------------------- results
def new_result() -> dict:
    """A child's result.  Its times are ``(start, end)`` stamps until
    ``finish`` converts them to seconds."""
    return {"setup": None, "units": {}, "work": {}, "latencies": {},
            "counts": {}, "attempted": 0, "failed": 0, "errors": []}


def fail(out: dict, ops: int, message: str) -> None:
    out["failed"] += ops
    out["errors"].append(message)


def golden(machine):
    """One fault-free run of ``machine``."""
    machine.reset()
    return machine.run()


def check_goldens(out: dict, goldens: dict, ops_per_cell: int) -> None:
    """Each cell's golden output must equal its workload's NOFT one."""
    reference = {}
    for (bench, tech), run in goldens.items():
        if bench not in reference:
            noft = (bench, "noft")
            reference[bench] = golden(prepared([noft])[noft])
        ref = reference[bench]
        if run.status.name != "EXITED" or (run.output, run.exit_code) \
                != (ref.output, ref.exit_code):
            fail(out, ops_per_cell,
                 f"{bench}/{tech}: golden output differs from noft")


# ------------------------------------------------------------- workloads
def campaign_setup(job: dict, out: dict, tracer, jit: bool) -> dict:
    """Build (and JIT-compile) every cell: ``{cell: unit}``, where a
    unit runs the cell's campaign at its fixed sites and returns
    ``(result, trial stamps)``."""
    from repro.faults.campaign import run_campaign
    from repro.sim.jit import attach_jit

    key, trials = job["key"], job["trials"]
    cells = [tuple(cell) for cell in job["cells"]]
    if tracer is not None:
        machines = traced_build(tracer, cells)
        units = {}
        for cell, machine in machines.items():
            if jit:
                traced_jit(tracer, machine, label(cell))
            with tracer.span("faults.golden", label(cell)):
                golden(machine)
            units[cell] = (lambda machine=machine, unit=label(cell):
                           (traced_campaign(tracer, machine, trials, key,
                                            unit), []))
        return units
    units = {}
    for cell in cells:
        try:
            machine = prepared([cell])[cell]
            if jit:
                attach_jit(machine)
            length = golden(machine).instructions
        except Exception as error:  # a broken cell fails, the rest run
            out["attempted"] += trials
            fail(out, trials, f"{label(cell)}: set-up failed: {error!r}")
            continue
        sites = stratified_sites(key, label(cell), length, trials)

        def unit(machine=machine, sites=sites):
            monitor = TrialClock(job["clock"])
            result = run_campaign(machine.program, sites=sites,
                                  machine=machine, jit=jit, monitor=monitor)
            return result, monitor.stamps
        units[cell] = unit
    return units


def campaign_unit(unit):
    result, stamps = unit()
    return result.trials, result.trials, result.summary_dict(), stamps


def campaign_checks(job: dict, out: dict, cells: list, jit: bool) -> None:
    """Goldens against NOFT; for the JIT, its outcomes against the
    interpreter's on ``JIT_CHECK_TRIALS`` sites per cell."""
    from repro.faults.campaign import run_campaign

    trials = job["trials"]
    machines = prepared(cells)
    check_goldens(out, {cell: golden(machines[cell]) for cell in cells},
                  trials)
    if not jit:
        return
    for cell, machine in machines.items():
        length = golden(machine).instructions
        sites = stratified_sites(job["key"], label(cell), length,
                                 JIT_CHECK_TRIALS)
        engines = [run_campaign(machine.program, sites=sites,
                                machine=machine, jit=engine)
                   for engine in (True, False)]
        if engines[0] != engines[1]:
            fail(out, trials, f"{label(cell)}: JIT and interpreter "
                              "outcomes differ")


def fig9_setup(job: dict, out: dict, tracer) -> dict:
    """Build every cell of the grid: ``{cell: unit}``, where a unit
    runs the cell's timing simulation and returns ``(timing result,
    program output)``."""
    from repro.sim.timing import TimingSimulator

    cells = [tuple(cell) for cell in job["cells"]]
    machines = (traced_build(tracer, cells) if tracer is not None
                else prepared(cells))

    def unit(machine):
        timing = TimingSimulator(machine).run()
        if tracer is not None:
            tracer.count("sim.timing.instructions", timing.instructions)
            tracer.count("sim.timing.cycles", timing.cycles)
        return timing, list(machine.output)
    return {cell: (lambda machine=machine: unit(machine))
            for cell, machine in machines.items()}


def fig9_unit(unit):
    timing, output = unit()
    counts = {"cycles": timing.cycles, "instructions": timing.instructions,
              "status": timing.status.name, "output": output}
    return 1, timing.instructions, counts, []


def fig9_checks(out: dict, cells: list) -> None:
    """Every timing run exits and prints what its workload's NOFT
    build prints."""
    for bench, tech in cells:
        counts = out["counts"][label((bench, tech))]
        noft = (bench, "noft")
        if counts["status"] != "EXITED":
            fail(out, 1, f"{bench}/{tech}: timing run ended "
                         f"{counts['status']}")
        elif counts["output"] != golden(prepared([noft])[noft]).output:
            fail(out, 1, f"{bench}/{tech}: output differs from noft")


def my_cells(job: dict, units: dict) -> list:
    """This child's share of the cells, in the order it runs them."""
    order = sorted(units)
    random.Random(job["key"]).shuffle(order)
    return order[job["part"]::job["parts"]]


def measure(job: dict, out: dict, units: dict, run_unit, tracer,
            span_name: str) -> None:
    """Run this child's units round after round until one round is done
    and ``job["budget"]`` wall seconds have passed; or for
    ``job["rounds"]`` rounds when it is set."""
    clock = job["clock"]
    order = my_cells(job, units)
    end = perf_counter() + job.get("budget", 0.0)
    rounds = 0
    while order and (rounds < job.get("rounds", 1) or "rounds" not in job):
        for cell in order:
            if rounds and "rounds" not in job and perf_counter() >= end:
                return
            name = label(cell)
            with span(tracer, span_name, name):
                start = clock.now()
                ops, work, counts, stamps = run_unit(units[cell])
                stop = clock.now()
            out["units"].setdefault(name, []).append((start, stop))
            out["work"][name] = work
            out["attempted"] += ops
            stamps = stamps or [start, stop]
            out["latencies"].setdefault(name, []).append(
                list(zip(stamps, stamps[1:])))
            if out["counts"].setdefault(name, counts) != counts:
                fail(out, ops, f"{name}: repeat {rounds} differs from "
                               "the first run")
        rounds += 1


def default_cells(kind: str) -> tuple[list, int]:
    """A workload's cells and the operations each unit runs."""
    if kind == "fig8-interp":
        return list(FIG8_CELLS), FIG8_TRIALS
    if kind == "campaign-jit":
        return list(JIT_CELLS), JIT_TRIALS
    return fig9_cells(), 1


def run_workload(job: dict, tracer) -> dict:
    out = new_result()
    clock = job["clock"]
    kind = job["kind"]
    cells, trials = default_cells(kind)
    job = dict(job, cells=job.get("cells") or cells, trials=trials)
    start = clock.now()
    if kind == "fig9-sweep":
        units = fig9_setup(job, out, tracer)
        run_unit, span_name = fig9_unit, "sim.timing.run"
    else:
        units = campaign_setup(job, out, tracer, kind == "campaign-jit")
        run_unit, span_name = campaign_unit, "faults.campaign"
    out["setup"] = (start, clock.now())
    measure(job, out, units, run_unit, tracer, span_name)
    if job.get("check"):
        cells = my_cells(job, units)
        if kind == "fig9-sweep":
            fig9_checks(out, cells)
        else:
            campaign_checks(job, out, cells, kind == "campaign-jit")
    for counts in out["counts"].values():
        counts.pop("output", None)
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def finish(out: dict, clock: HostClock, start: float, tracer) -> None:
    """Turn the child's stamps into seconds at the reference speed."""
    end = clock.now()
    clock.stop()
    seconds = clock.seconds
    out["setup_s"] = seconds(*out.pop("setup"))
    out["elapsed_s"] = seconds(start, end)
    out["units"] = {name: [seconds(*interval) for interval in intervals]
                    for name, intervals in out["units"].items()}
    out["latencies"] = {
        name: [[seconds(*interval) for interval in repeat]
               for repeat in repeats]
        for name, repeats in out["latencies"].items()}
    if tracer is not None:
        for record in tracer.spans:
            record["seconds"] = seconds(record["start"], record["end"])
        out["spans"] = tracer.spans
        out["layer_counts"] = tracer.counts


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    for module in LAYERS:
        importlib.import_module(module)
    clock = HostClock()
    clock.start()
    start = clock.now()
    tracer = Tracer(clock) if job.get("trace") else None
    out = run_workload(dict(job, clock=clock), tracer)
    finish(out, clock, start, tracer)
    out["rss_mb"] = peak_rss_mb()
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
