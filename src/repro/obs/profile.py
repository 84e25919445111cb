"""Simulator hot-path profiler: the measurement layer for the JIT.

The interpreter's cost is dominated by a handful of basic blocks (inner
loops of the guest workload times the trial count of the campaign), but
until now nothing recorded *which* blocks those are.  This module
collects, per ``(function, block)``:

* **deterministic dynamic execution counts**, per instruction index --
  a pure function of the executed trials, so ``--jobs N`` shards merge
  to exactly the serial counts and two runs with the same seed agree
  bit for bit;
* **side-exit statistics** -- how each block activation ended (taken
  branch, fallthrough, call, return, clean exit, detection, trap,
  hang) -- which is what decides whether a block is a straight-line
  trace candidate or a dispatch hub;
* **fault-mode interaction counts** -- repair-block entries
  (``ACT_RECOVER``) attributed to the block they fired in, plus how
  many trials ran under taint tracing (those instructions execute in
  the traced loop and are *not* counted here);
* **sampled wall time** -- a countdown sampler reads the clock once
  every ``sample_every`` instructions and attributes the elapsed slice
  to the block that tripped it.  Wall shares are noisy by design and
  excluded from every determinism guarantee; the deterministic counts
  carry the ranking.

The profiler attaches to a machine exactly like the taint tracker:
``machine.profile = SimProfiler()`` switches :meth:`Machine.run` onto
the ``profile`` variant of the shared run loop (``PROFILE`` in
:mod:`repro.sim.loop`, with the hooks below rendered in);
``machine.profile = None`` (the default) runs the plain variant, which
holds no profiler code -- the only cost of the feature existing is one
attribute check per ``run()`` call, not per instruction.
"""

from __future__ import annotations

from time import perf_counter

#: Side-exit kinds recorded per block, in report column order.
EXIT_KINDS = ("branch", "fall", "call", "ret", "exit",
              "detect", "trap", "hang")

#: Default instruction spacing of the wall-clock sampler.  At ~1M
#: interpreted instructions/sec this is a few hundred clock reads per
#: second: fine-grained enough to rank blocks, cheap enough to leave on.
DEFAULT_SAMPLE_EVERY = 4096


class SimProfiler:
    """Accumulates per-block execution profiles across runs.

    One profiler can observe any number of runs and machines (the
    campaign runners attach one profiler around a whole campaign), and
    profilers from different shards of the same campaign merge
    associatively with :meth:`merge_from`.
    """

    def __init__(self, sample_every: int = DEFAULT_SAMPLE_EVERY) -> None:
        self.sample_every = max(int(sample_every), 1)
        #: (function, block) -> per-instruction-index execution counts.
        self.index_counts: dict[tuple[str, str], list[int]] = {}
        #: (function, block) -> opcode names, parallel to index_counts.
        self.block_ops: dict[tuple[str, str], tuple[str, ...]] = {}
        #: (function, block) -> {exit kind -> count}.
        self.exits: dict[tuple[str, str], dict[str, int]] = {}
        #: (function, block) -> repair-block entries observed inside it.
        self.recoveries: dict[tuple[str, str], int] = {}
        #: (function, block) -> sampled wall seconds.
        self.wall: dict[tuple[str, str], float] = {}
        #: Trials that ran (partly) in the taint-traced loop, whose
        #: instructions this profiler therefore did not see.
        self.taint_trials = 0
        #: (function, block) pairs the block JIT runs compiled (None
        #: until :meth:`annotate_jit` runs; profiled execution itself
        #: always uses the counting interpreter loop).
        self.jit_blocks: set[tuple[str, str]] | None = None
        self._countdown = self.sample_every
        self._last_sample = perf_counter()

    # ------------------------------------------------------------ loop hooks
    def register_block(self, key: tuple[str, str], block) -> list[int]:
        """First sighting of a block: allocate its count vector."""
        counts = self.index_counts.get(key)
        if counts is None:
            counts = self.index_counts[key] = [0] * len(block.instrs)
            self.block_ops[key] = tuple(
                ins.op.name for ins in block.instrs)
            self.exits.setdefault(key, {})
        return counts

    def block_tick(self, key: tuple[str, str], instructions: int) -> None:
        """Advance the wall sampler by one block activation."""
        self._countdown -= instructions
        if self._countdown <= 0:
            now = perf_counter()
            self.wall[key] = (self.wall.get(key, 0.0)
                              + (now - self._last_sample))
            self._last_sample = now
            self._countdown = self.sample_every

    def record_exit(self, key: tuple[str, str], kind: str) -> None:
        exits = self.exits.setdefault(key, {})
        exits[kind] = exits.get(kind, 0) + 1

    def record_recovery(self, key: tuple[str, str]) -> None:
        self.recoveries[key] = self.recoveries.get(key, 0) + 1

    def annotate_jit(self, machine) -> None:
        """Record which of ``machine``'s blocks the block JIT runs
        compiled, so the hotspot report can show what fraction of the
        profiled dynamic instructions a ``--jit`` campaign executes in
        compiled code rather than in the interpreter.

        This is the JIT's *static* decision per block: every block of
        an uncompilable function, and every SWIFT-R/TRUMP repair block,
        is interpreted (``JitProgram.interpreted``).  The rare dynamic
        exits -- injection pauses, mid-block resumes, bails -- re-enter
        compiled code at the next block, so block granularity is the
        honest approximation.
        Profiled execution itself always runs the counting interpreter
        loop; this only annotates.
        """
        from ..sim.jit import jit_program_for

        interpreted = jit_program_for(machine).interpreted
        self.jit_blocks = {
            (name, block.name)
            for name, cfunc in machine.functions.items()
            for block in cfunc.blocks
        } - interpreted

    # ------------------------------------------------------------- aggregates
    @property
    def total_instructions(self) -> int:
        return sum(sum(counts) for counts in self.index_counts.values())

    @property
    def total_wall(self) -> float:
        return sum(self.wall.values())

    def opcode_counts(self) -> dict[str, int]:
        """Dynamic execution count per opcode, derived from the block
        vectors (the hot loop never touches a per-opcode dict)."""
        totals: dict[str, int] = {}
        for key, counts in self.index_counts.items():
            ops = self.block_ops[key]
            for op, count in zip(ops, counts):
                if count:
                    totals[op] = totals.get(op, 0) + count
        return totals

    def merge_from(self, other: "SimProfiler") -> None:
        """Fold another shard's counts into this profiler.

        Merging is associative and order-independent for every
        deterministic field, which is what makes ``--jobs N`` profiles
        bit-identical to serial ones; wall samples simply add.
        """
        for key, counts in other.index_counts.items():
            mine = self.index_counts.get(key)
            if mine is None:
                self.index_counts[key] = list(counts)
                self.block_ops[key] = other.block_ops[key]
            else:
                for i, count in enumerate(counts):
                    mine[i] += count
        for key, exits in other.exits.items():
            mine_exits = self.exits.setdefault(key, {})
            for kind, count in exits.items():
                mine_exits[kind] = mine_exits.get(kind, 0) + count
        for key, count in other.recoveries.items():
            self.recoveries[key] = self.recoveries.get(key, 0) + count
        for key, seconds in other.wall.items():
            self.wall[key] = self.wall.get(key, 0.0) + seconds
        self.taint_trials += other.taint_trials
        if other.jit_blocks is not None:
            self.jit_blocks = (self.jit_blocks or set()) | other.jit_blocks

    # ---------------------------------------------------------------- export
    def to_records(self, context: dict | None = None) -> list[dict]:
        """JSONL-ready records: one summary, one per block, one per
        opcode.  Deterministic fields are exact; wall fields are the
        sampler's estimates."""
        total = self.total_instructions
        total_wall = self.total_wall
        records: list[dict] = []
        summary = {
            "kind": "profile_summary",
            "total_instructions": total,
            "blocks": len(self.index_counts),
            "sample_every": self.sample_every,
            "wall_seconds": round(total_wall, 6),
            "taint_trials": self.taint_trials,
        }
        if self.jit_blocks is not None:
            jit_instructions = sum(
                sum(counts) for key, counts in self.index_counts.items()
                if key in self.jit_blocks)
            summary["jit_instructions"] = jit_instructions
            summary["jit_coverage"] = (round(jit_instructions / total, 8)
                                       if total else 0.0)
        if context:
            summary.update(context)
        records.append(summary)
        for key in sorted(self.index_counts):
            counts = self.index_counts[key]
            instructions = sum(counts)
            record = {
                "kind": "block_profile",
                "function": key[0],
                "block": key[1],
                "instructions": instructions,
                "entries": counts[0] if counts else 0,
                "share": (round(instructions / total, 8) if total else 0.0),
                "exits": {k: v for k, v
                          in sorted(self.exits.get(key, {}).items())},
                "recoveries": self.recoveries.get(key, 0),
                "wall_seconds": round(self.wall.get(key, 0.0), 6),
                "index_counts": list(counts),
            }
            if self.jit_blocks is not None:
                record["jit"] = key in self.jit_blocks
            if context:
                record.update(context)
            records.append(record)
        opcodes = self.opcode_counts()
        for op in sorted(opcodes, key=lambda o: (-opcodes[o], o)):
            record = {
                "kind": "opcode_profile",
                "op": op,
                "count": opcodes[op],
                "share": (round(opcodes[op] / total, 8) if total else 0.0),
            }
            if context:
                record.update(context)
            records.append(record)
        return records


# -------------------------------------------------------------- report
def _block_label(record: dict) -> str:
    return f"{record['function']}/{record['block']}"


def _merge_blocks(records) -> list[dict]:
    """Fold block records for the same block (e.g. one per fig8 cell)."""
    merged: dict[tuple[str, str], dict] = {}
    for record in records:
        key = (record["function"], record["block"])
        into = merged.get(key)
        if into is None:
            into = merged[key] = {
                "function": key[0], "block": key[1], "instructions": 0,
                "entries": 0, "recoveries": 0, "wall_seconds": 0.0,
                "exits": {},
            }
        into["instructions"] += record.get("instructions", 0)
        into["entries"] += record.get("entries", 0)
        into["recoveries"] += record.get("recoveries", 0)
        into["wall_seconds"] += record.get("wall_seconds", 0.0)
        if "jit" in record:
            into["jit"] = bool(into.get("jit", False) or record["jit"])
        for kind, count in record.get("exits", {}).items():
            into["exits"][kind] = into["exits"].get(kind, 0) + count
    return list(merged.values())


def _merge_opcodes(records) -> list[dict]:
    totals: dict[str, int] = {}
    for record in records:
        totals[record["op"]] = (totals.get(record["op"], 0)
                                + record.get("count", 0))
    return [{"op": op, "count": count} for op, count in totals.items()]


def hotspot_tables(records: list[dict], top: int = 10) -> list:
    """The JIT candidate report's tables over exported profile records.

    Ranks blocks by exact dynamic instruction share (the deterministic
    signal a tracing JIT would key on), annotates each with its
    side-exit mix and fault-mode interactions, and appends the
    per-opcode dynamic-share table, whose shares sum to 1.
    """
    from .emit import Table

    blocks = _merge_blocks(
        r for r in records if r.get("kind") == "block_profile")
    opcodes = _merge_opcodes(
        r for r in records if r.get("kind") == "opcode_profile")
    summaries = [r for r in records if r.get("kind") == "profile_summary"]
    if not blocks:
        return []
    total = sum(r["instructions"] for r in blocks)
    total_wall = sum(r.get("wall_seconds", 0.0) for r in blocks)
    has_jit = any("jit" in r for r in blocks)
    blocks.sort(key=lambda r: (-r["instructions"], _block_label(r)))
    rows = []
    cumulative = 0
    for rank, record in enumerate(blocks[:top], start=1):
        cumulative += record["instructions"]
        entries = record.get("entries", 0)
        exits = record.get("exits", {})
        side = " ".join(f"{kind}:{exits[kind]}" for kind in EXIT_KINDS
                        if exits.get(kind))
        wall = record.get("wall_seconds", 0.0)
        row = [
            rank,
            _block_label(record),
            record["instructions"],
            f"{100.0 * record['instructions'] / total:6.2f}",
            f"{100.0 * cumulative / total:6.2f}",
            entries,
            (f"{record['instructions'] / entries:6.1f}"
             if entries else "-"),
            (f"{100.0 * wall / total_wall:5.1f}" if total_wall else "-"),
            record.get("recoveries", 0),
        ]
        if has_jit:
            row.append("yes" if record.get("jit") else "no")
        row.append(side or "-")
        rows.append(row)
    headers = ["#", "block", "instrs", "share%", "cum%", "entries",
               "instrs/entry", "wall%", "recov"]
    if has_jit:
        headers.append("jit")
    headers.append("exits")
    main = Table(
        title=f"JIT candidates: top {min(top, len(blocks))} of "
              f"{len(blocks)} blocks by dynamic instruction share "
              f"({total} instructions)",
        columns=headers, rows=rows,
    )
    tables = [main]

    jit_cut = 0
    running = 0
    for record in blocks:
        running += record["instructions"]
        jit_cut += 1
        if running >= 0.8 * total:
            break
    notes = [f"{jit_cut} block(s) cover 80% of all dynamic instructions."]
    if has_jit and total:
        covered = sum(r["instructions"] for r in blocks if r.get("jit"))
        notes.append(
            f"JIT coverage: {100.0 * covered / total:.2f}% of dynamic "
            "instructions lie in compiled blocks; the rest run in the "
            "interpreter fallback under --jit.")
    taint_trials = sum(r.get("taint_trials", 0) for r in summaries)
    if taint_trials:
        notes.append(
            f"{taint_trials} trial(s) ran under taint tracing; their "
            "instructions executed in the traced loop and are not "
            "counted above.")
    main.notes = notes

    if opcodes:
        op_total = sum(r["count"] for r in opcodes)
        op_rows = [
            [r["op"], r["count"],
             f"{100.0 * r['count'] / op_total:6.2f}"]
            for r in sorted(opcodes,
                            key=lambda r: (-r["count"], r["op"]))
        ]
        share_sum = sum(r["count"] / op_total for r in opcodes)
        tables.append(Table(
            title=f"Per-opcode dynamic shares ({len(opcodes)} opcodes, "
                  f"shares sum to {share_sum:.6f})",
            columns=["opcode", "count", "share%"], rows=op_rows,
        ))
    return tables


def render_hotspots(records: list[dict], top: int = 10,
                    fmt: str = "text") -> str:
    """Render the JIT candidate report (see :func:`hotspot_tables`)."""
    from .emit import emit_tables

    return emit_tables(hotspot_tables(records, top=top), fmt,
                       kind="hotspots",
                       empty="(no profile records)")
