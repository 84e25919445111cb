"""Program-anchored reliability atlas: outcomes mapped onto the binary.

A campaign samples *dynamic* fault sites -- (instruction index,
register, bit) triples -- but hardening decisions are made about
*static* instructions.  This module folds per-trial telemetry into a
map keyed by program coordinates (``function/block/index``, the same
location strings taint events carry): per-instruction outcome tallies
(unACE / detected / recovered / SDC / hang), detection-latency sums,
and taint-derived escape-route edges naming the instruction each SDC
leaked through.

Anchoring works by replaying the golden run once and pausing at every
sampled dynamic index (:func:`collect_site_locations`), which costs
one extra golden replay *only when an atlas is requested* -- the trial
loop itself does no extra per-trial work, so campaigns without
``--atlas`` are untouched.

Tallies are **population-weighted** via the stratified fault space of
:mod:`repro.stats.space`: a trial drawn from stratum ``h`` contributes
``W_h / n_h`` (its Horvitz-Thompson weight) to every rate, so maps
estimate each instruction's *contribution to the population failure
rate* rather than raw sample counts.  Unstratified campaigns collapse
to a single stratum and the weights reduce to ``1/N``.

Shard discipline: the accumulator holds **integers only** (counts
keyed by location/stratum/outcome strings); weights are applied at
export, in sorted key order.  Accumulators therefore merge
associatively and a ``--jobs N`` campaign produces an atlas JSON
bit-identical to the serial one, which CI diffs.

The exported artifact is versioned (:data:`ATLAS_SCHEMA_VERSION`,
the same discipline as :func:`repro.obs.sink.write_bench`'s bench
files) and :meth:`Atlas.top_escapes` is the machine-readable
ranked-instruction feed a selective-hardening pass (``repro tune``)
consumes.
"""

from __future__ import annotations

import json

from ..isa.printer import format_instruction, print_function
from ..sim.events import RunStatus
from .emit import Table
from .forensics import classify_trial

#: Version stamp of the atlas JSON artifact.  Bump on any field change;
#: :class:`Atlas` refuses to load a payload from a different version.
ATLAS_SCHEMA_VERSION = 1

#: Outcome column order used by every atlas table and gutter.
OUTCOMES = ("unACE", "DUE", "SDC", "SEGV", "Hang")

#: Outcomes that constitute a failure (SDC folds hangs, as everywhere
#: else in the repo; SEGV is a fail-stop failure).
FAILING = ("SDC", "SEGV", "Hang")

#: Pseudo-locations for trials that cannot be anchored to code.
NEVER_LANDED_LOC = "(never-landed)"
UNMAPPED_LOC = "(unmapped)"

#: Low-to-high heat ramp for the TTY map gutter.
HEAT_RAMP = " .:-=+*#%@"

#: The key unstratified campaigns fall into (weight 1.0).
DEFAULT_STRATUM = ""


def collect_site_locations(machine, indices) -> dict[int, tuple[str, str]]:
    """Anchor dynamic instruction indices to static program locations.

    Replays the golden run on ``machine`` (reset first), pausing at
    every distinct index in ``indices`` to record
    ``(location, instruction text)`` -- the location string is
    ``function/block/index`` exactly as taint events format it, and the
    instruction text is :func:`~repro.isa.printer.format_instruction`'s
    rendering (identical to taint events' ``instr`` fields).  Indices
    at or past the end of the run are absent from the result (the
    caller buckets them as :data:`UNMAPPED_LOC`).  Leaves the machine
    at end-of-run.
    """
    targets = sorted({int(i) for i in indices if i >= 0})
    locations: dict[int, tuple[str, str]] = {}
    machine.reset()
    for index in targets:
        result = machine.run(index)
        if result.status is not RunStatus.PAUSED or \
                result.instructions != index:
            break  # run ended before this index; the rest are unmapped
        location = machine.current_location()
        if location is None:  # pragma: no cover - paused implies a position
            break
        instr = machine.next_instruction()
        locations[index] = (
            f"{location[0]}/{location[1]}/{location[2]}",
            format_instruction(instr) if instr is not None else "?",
        )
    machine.run()
    return locations


def _loc_sort_key(loc: str) -> tuple:
    """Sort real locations by (function, block, numeric index); pseudo
    locations (parenthesised) after them."""
    if loc.startswith("("):
        return (1, loc, "", 0)
    head, _, index = loc.rpartition("/")
    func, _, block = head.rpartition("/")
    try:
        numeric = int(index)
    except ValueError:
        numeric = 0
    return (0, func, block, numeric)


class AtlasAccumulator:
    """Shard-mergeable, integer-only atlas accumulation.

    One accumulator per campaign (or per shard); :meth:`merge_from`
    folds shards together associatively.  All fields are exact counts
    keyed by strings -- no floats enter until :class:`Atlas` applies
    stratum weights at export -- which is what makes ``--jobs N``
    atlases bit-identical to serial ones.
    """

    def __init__(self) -> None:
        self.golden_instructions = 0
        self.trials = 0
        self.never_landed = 0
        #: location -> stratum -> outcome -> trials.
        self.counts: dict[str, dict[str, dict[str, int]]] = {}
        #: location -> instruction text (first sighting wins; the
        #: mapping is deterministic, so every shard agrees).
        self.instrs: dict[str, str] = {}
        #: location -> stratum -> trials in which repair code fired.
        self.recovered: dict[str, dict[str, int]] = {}
        #: location -> [detected trials, summed detection latency].
        self.latency: dict[str, list[int]] = {}
        #: (site loc, mechanism, event loc, event instr) -> trials.
        self.edges: dict[tuple[str, str, str, str], int] = {}
        #: stratum -> trials sampled from it (the n_h of the weights).
        self.strata_trials: dict[str, int] = {}

    def add_records(self, trials: list[dict], taint_records: list[dict],
                    locations: dict[int, tuple[str, str]]) -> None:
        """Fold trial dicts (plus their taint summaries) into the map.

        ``locations`` comes from :func:`collect_site_locations`;
        landed trials whose dynamic index is missing from it are
        bucketed under :data:`UNMAPPED_LOC` instead of being dropped.
        """
        summaries: dict[int | None, dict] = {}
        for record in taint_records:
            if record.get("kind") == "taint_summary":
                summaries[record.get("trial")] = record
        for trial in trials:
            outcome = str(trial.get("outcome", "?"))
            stratum = trial.get("stratum") or DEFAULT_STRATUM
            self.trials += 1
            self.strata_trials[stratum] = \
                self.strata_trials.get(stratum, 0) + 1
            if trial.get("fault_landed", True):
                loc, instr = locations.get(
                    trial.get("dynamic_index", -1), (UNMAPPED_LOC, "?"))
            else:
                loc, instr = NEVER_LANDED_LOC, "-"
                self.never_landed += 1
            self.instrs.setdefault(loc, instr)
            per_stratum = self.counts.setdefault(loc, {}) \
                              .setdefault(stratum, {})
            per_stratum[outcome] = per_stratum.get(outcome, 0) + 1
            if trial.get("recovered"):
                rec = self.recovered.setdefault(loc, {})
                rec[stratum] = rec.get(stratum, 0) + 1
            lat = trial.get("detection_latency")
            if lat is not None:
                bucket = self.latency.setdefault(loc, [0, 0])
                bucket[0] += 1
                bucket[1] += int(lat)
            if outcome in FAILING:
                attribution = classify_trial(
                    trial, summaries.get(trial.get("trial")))
                event = attribution.get("event")
                if event:
                    key = (loc, attribution["mechanism"],
                           str(event.get("loc", "?")),
                           str(event.get("instr", "?")))
                    self.edges[key] = self.edges.get(key, 0) + 1

    def add_campaign(self, machine, log, log_start: int = 0) -> None:
        """Fold the tail of a :class:`~repro.obs.CampaignLog` (records
        from ``log_start`` on) into the map, anchoring sites with one
        golden replay on ``machine``."""
        records = [r.to_dict() for r in log.records[log_start:]]
        if not records:
            return
        ids = {r["trial"] for r in records}
        summaries = [t for t in log.taint_records
                     if t.get("kind") == "taint_summary"
                     and t.get("trial") in ids]
        locations = collect_site_locations(
            machine, [r["dynamic_index"] for r in records
                      if r.get("fault_landed", True)])
        self.add_records(records, summaries, locations)

    def merge_from(self, other: "AtlasAccumulator") -> None:
        """Fold another shard's accumulator into this one.

        Associative and commutative on every field (integer sums), with
        the same golden-fingerprint guard as
        :meth:`CampaignResult.merged`."""
        if (self.golden_instructions and other.golden_instructions
                and self.golden_instructions != other.golden_instructions):
            raise ValueError(
                "refusing to merge atlases over different binaries: "
                f"golden runs executed {self.golden_instructions} vs "
                f"{other.golden_instructions} instructions")
        self.golden_instructions = (self.golden_instructions
                                    or other.golden_instructions)
        self.trials += other.trials
        self.never_landed += other.never_landed
        for loc, instr in other.instrs.items():
            self.instrs.setdefault(loc, instr)
        for loc, strata in other.counts.items():
            mine = self.counts.setdefault(loc, {})
            for stratum, outcomes in strata.items():
                cell = mine.setdefault(stratum, {})
                for outcome, n in outcomes.items():
                    cell[outcome] = cell.get(outcome, 0) + n
        for loc, strata in other.recovered.items():
            mine_rec = self.recovered.setdefault(loc, {})
            for stratum, n in strata.items():
                mine_rec[stratum] = mine_rec.get(stratum, 0) + n
        for loc, (detected, total) in other.latency.items():
            bucket = self.latency.setdefault(loc, [0, 0])
            bucket[0] += detected
            bucket[1] += total
        for key, n in other.edges.items():
            self.edges[key] = self.edges.get(key, 0) + n
        for stratum, n in other.strata_trials.items():
            self.strata_trials[stratum] = \
                self.strata_trials.get(stratum, 0) + n


class Atlas:
    """The exportable reliability map: accumulator counts + weights.

    Wraps the versioned JSON payload; every derived view
    (:meth:`site_rows`, :meth:`top_escapes`, the renderings) is
    computed from the payload on demand, so
    ``Atlas.from_json(a.to_json())`` reproduces every view exactly
    (Python floats round-trip through JSON by value).
    """

    def __init__(self, payload: dict) -> None:
        if payload.get("kind") != "atlas":
            raise ValueError(
                f"not an atlas payload: kind={payload.get('kind')!r}")
        version = payload.get("schema_version")
        if version != ATLAS_SCHEMA_VERSION:
            raise ValueError(
                f"atlas schema version {version!r} not supported "
                f"(this build reads version {ATLAS_SCHEMA_VERSION})")
        self.payload = payload

    # ------------------------------------------------------------ construction
    @classmethod
    def from_accumulator(cls, acc: AtlasAccumulator,
                         weights: dict[str, float] | None = None,
                         context: dict | None = None) -> "Atlas":
        """Apply stratum ``weights`` (population shares from
        :meth:`FaultSpace.weight`) to an accumulator's counts.

        With ``weights=None`` strata are self-weighted by their sampled
        share -- exact for uniform sampling, where every trial already
        has weight ``1/N``."""
        strata = sorted(acc.strata_trials)
        if weights is None:
            total = acc.trials
            weights = {s: (acc.strata_trials[s] / total if total else 0.0)
                       for s in strata}
        sites = []
        for loc in sorted(acc.counts, key=_loc_sort_key):
            site = {
                "loc": loc,
                "instr": acc.instrs.get(loc, "?"),
                "counts": {stratum: {outcome: n for outcome, n
                                     in sorted(outcomes.items())}
                           for stratum, outcomes
                           in sorted(acc.counts[loc].items())},
            }
            if loc in acc.recovered:
                site["recovered"] = {s: n for s, n
                                     in sorted(acc.recovered[loc].items())}
            if loc in acc.latency:
                site["latency"] = list(acc.latency[loc])
            sites.append(site)
        edges = [
            {"site": site, "mechanism": mechanism, "to": to,
             "instr": instr, "count": acc.edges[key]}
            for key in sorted(acc.edges, key=lambda k:
                              (_loc_sort_key(k[0]), k[1],
                               _loc_sort_key(k[2]), k[3]))
            for site, mechanism, to, instr in [key]
        ]
        payload = {
            "kind": "atlas",
            "schema_version": ATLAS_SCHEMA_VERSION,
            "context": {key: (context or {})[key]
                        for key in sorted(context or {})},
            "golden_instructions": acc.golden_instructions,
            "trials": acc.trials,
            "never_landed": acc.never_landed,
            "strata": {s: {"weight": float(weights.get(s, 0.0)),
                           "trials": acc.strata_trials[s]}
                       for s in strata},
            "sites": sites,
            "edges": edges,
        }
        return cls(payload)

    # -------------------------------------------------------------- round-trip
    def to_json(self) -> str:
        return json.dumps(self.payload, indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Atlas":
        return cls(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "Atlas":
        with open(path) as handle:
            return cls.from_json(handle.read())

    # ----------------------------------------------------------------- queries
    @property
    def trials(self) -> int:
        return self.payload.get("trials", 0)

    @property
    def context(self) -> dict:
        return self.payload.get("context", {})

    def site_rows(self) -> list[dict]:
        """One row per anchored location: raw outcome totals plus the
        population-weighted share each (location, outcome) contributes.

        The weighted share of outcome ``o`` at a location is
        ``sum_h W_h * c_h(o) / n_h`` over the strata the location was
        sampled from -- summing a row's shares over all locations and
        outcomes recovers 1.0 when every stratum was sampled.
        """
        strata = self.payload.get("strata", {})
        rows = []
        for site in self.payload.get("sites", []):
            totals: dict[str, int] = {}
            weighted: dict[str, float] = {}
            for stratum in sorted(site.get("counts", {})):
                info = strata.get(stratum, {})
                n_h = info.get("trials", 0)
                w_h = info.get("weight", 0.0)
                for outcome, n in sorted(site["counts"][stratum].items()):
                    totals[outcome] = totals.get(outcome, 0) + n
                    if n_h:
                        weighted[outcome] = (weighted.get(outcome, 0.0)
                                             + w_h * n / n_h)
            detected, lat_sum = site.get("latency", [0, 0])
            rows.append({
                "loc": site["loc"],
                "instr": site.get("instr", "?"),
                "trials": sum(totals.values()),
                "counts": totals,
                "weighted": weighted,
                "recovered": sum(site.get("recovered", {}).values()),
                "detected": detected,
                "mean_latency": (lat_sum / detected if detected else None),
                "failure_share": sum(weighted.get(o, 0.0)
                                     for o in FAILING),
            })
        return rows

    def top_escapes(self, limit: int = 10) -> list[dict]:
        """Ranked SDC-leaking instructions: the feed ``repro tune``
        consumes.  Ranked by weighted SDC(+Hang) contribution, each
        entry carrying its taint-derived escape routes (mechanism, the
        instruction the corruption left through, trial count)."""
        routes: dict[str, list[dict]] = {}
        for edge in self.payload.get("edges", []):
            routes.setdefault(edge["site"], []).append(edge)
        ranked = []
        for row in self.site_rows():
            if row["loc"].startswith("("):
                continue  # pseudo-locations name no instruction
            sdc = (row["counts"].get("SDC", 0)
                   + row["counts"].get("Hang", 0))
            if not sdc:
                continue
            share = (row["weighted"].get("SDC", 0.0)
                     + row["weighted"].get("Hang", 0.0))
            ranked.append({
                "loc": row["loc"],
                "instr": row["instr"],
                "trials": row["trials"],
                "sdc": sdc,
                "weighted_share": share,
                "routes": [
                    {"mechanism": e["mechanism"], "to": e["to"],
                     "instr": e["instr"], "count": e["count"]}
                    for e in sorted(routes.get(row["loc"], []),
                                    key=lambda e: (-e["count"],
                                                   e["mechanism"],
                                                   _loc_sort_key(e["to"]),
                                                   e["instr"]))
                ],
            })
        ranked.sort(key=lambda r: (-r["weighted_share"], -r["sdc"],
                                   _loc_sort_key(r["loc"])))
        ranked = ranked[:max(limit, 0)]
        for rank, entry in enumerate(ranked, start=1):
            entry["rank"] = rank
        return ranked

    def escapes_json(self, limit: int = 10) -> str:
        """The :meth:`top_escapes` feed wrapped in its own versioned
        envelope (same schema version as the atlas payload)."""
        return json.dumps({
            "kind": "atlas_escapes",
            "schema_version": ATLAS_SCHEMA_VERSION,
            "context": self.context,
            "trials": self.trials,
            "escapes": self.top_escapes(limit),
        }, indent=1, sort_keys=True)

    # --------------------------------------------------------------- rendering
    def tables(self, top: int = 10, include_sites: bool = True
               ) -> list[Table]:
        """The atlas's tabular sections (everything but the heatmap)."""
        tables: list[Table] = []
        rows = self.site_rows()
        real = [r for r in rows if not r["loc"].startswith("(")]

        strata = self.payload.get("strata", {})
        if len(strata) > 1 or DEFAULT_STRATUM not in strata:
            total = self.trials or 1
            tables.append(Table(
                title=f"Stratum weights ({len(strata)} strata, "
                      f"{self.trials} trials)",
                columns=["stratum", "weight%", "trials", "sampled%"],
                rows=[[key or "(all)",
                       f"{100.0 * info.get('weight', 0.0):7.3f}",
                       info.get("trials", 0),
                       f"{100.0 * info.get('trials', 0) / total:6.2f}"]
                      for key, info in sorted(strata.items())],
            ))

        if include_sites and real:
            ranked = sorted(real, key=lambda r: (-r["failure_share"],
                                                 -r["trials"],
                                                 _loc_sort_key(r["loc"])))
            site_rows = []
            for row in ranked[:max(top, 0)]:
                counts = row["counts"]
                site_rows.append([
                    row["loc"], row["instr"], row["trials"],
                    counts.get("unACE", 0), counts.get("DUE", 0),
                    row["recovered"], counts.get("SDC", 0),
                    counts.get("SEGV", 0), counts.get("Hang", 0),
                    f"{100.0 * row['failure_share']:7.4f}",
                    (f"{row['mean_latency']:8.1f}"
                     if row["mean_latency"] is not None else "-"),
                ])
            tables.append(Table(
                title=f"Reliability map: top {len(site_rows)} of "
                      f"{len(real)} anchored instructions by weighted "
                      "failure contribution",
                columns=["site", "instruction", "trials", "unACE", "DUE",
                         "rec", "SDC", "SEGV", "Hang", "wfail%",
                         "mean lat"],
                rows=site_rows,
            ))

        escapes = self.top_escapes(top)
        if escapes:
            escape_rows = []
            for entry in escapes:
                if entry["routes"]:
                    for i, route in enumerate(entry["routes"]):
                        escape_rows.append([
                            str(entry["rank"]) if i == 0 else "",
                            entry["loc"] if i == 0 else "",
                            entry["instr"] if i == 0 else "",
                            entry["sdc"] if i == 0 else "",
                            (f"{100.0 * entry['weighted_share']:7.4f}"
                             if i == 0 else ""),
                            route["mechanism"],
                            route["instr"],
                            f"{route['to']} x{route['count']}",
                        ])
                else:
                    escape_rows.append([
                        str(entry["rank"]), entry["loc"], entry["instr"],
                        entry["sdc"],
                        f"{100.0 * entry['weighted_share']:7.4f}",
                        "(no taint data)", "-", "-",
                    ])
            tables.append(Table(
                title=f"Escape routes: top {len(escapes)} SDC-leaking "
                      "instructions (weighted SDC+Hang contribution)",
                columns=["#", "site", "instruction", "sdc", "wSDC%",
                         "mechanism", "escapes via", "at"],
                rows=escape_rows,
            ))

        notes = [
            f"{self.trials} trials anchored to {len(real)} static "
            f"instructions over a golden run of "
            f"{self.payload.get('golden_instructions', 0)} instructions."
        ]
        pseudo = [r for r in rows if r["loc"].startswith("(")]
        for row in pseudo:
            notes.append(f"{row['trials']} trial(s) in {row['loc']}: "
                         "not attributable to an instruction.")
        if tables:
            tables[0].notes = notes + tables[0].notes
        else:
            tables.append(Table(title="", columns=[], rows=[],
                                notes=notes))
        return tables

    def heatmap(self, program) -> str:
        """The TTY heatmap: :mod:`repro.isa.printer` disassembly of
        every sampled function with a per-instruction outcome gutter.

        Heat ramps with the instruction's weighted failure
        contribution relative to the worst instruction on the map.
        """
        per_block: dict[tuple[str, str], dict[int, dict]] = {}
        peak = 0.0
        for row in self.site_rows():
            if row["loc"].startswith("("):
                continue
            head, _, index = row["loc"].rpartition("/")
            func, _, block = head.rpartition("/")
            try:
                numeric = int(index)
            except ValueError:
                continue
            per_block.setdefault((func, block), {})[numeric] = row
            peak = max(peak, row["failure_share"])

        sampled_funcs = {func for func, _ in per_block}
        header = (f"{'':1} {'trials':>6} {'unACE':>6} {'DUE':>5} "
                  f"{'rec':>5} {'SDC':>5} {'SEGV':>5} {'Hang':>5} | ")
        empty = " " * (len(header) - 2) + "| "

        def gutter_for(func_name):
            def gutter(block_name, index, instr):
                row = per_block.get((func_name, block_name),
                                    {}).get(index)
                if row is None:
                    return empty
                share = row["failure_share"]
                level = (min(int(share / peak * (len(HEAT_RAMP) - 1)),
                             len(HEAT_RAMP) - 1) if peak > 0.0 else 0)
                if share > 0.0:
                    level = max(level, 1)
                counts = row["counts"]
                return (f"{HEAT_RAMP[level]:1} {row['trials']:>6} "
                        f"{counts.get('unACE', 0):>6} "
                        f"{counts.get('DUE', 0):>5} "
                        f"{row['recovered']:>5} "
                        f"{counts.get('SDC', 0):>5} "
                        f"{counts.get('SEGV', 0):>5} "
                        f"{counts.get('Hang', 0):>5} | ")
            return gutter

        sections = []
        for function in program:
            if function.name not in sampled_funcs:
                continue
            sections.append(
                header + f"(per-instruction outcomes, {function.name})")
            sections.append(print_function(
                function, annotate=gutter_for(function.name)))
        if not sections:
            return "(no sampled instructions map onto this program)"
        return "\n".join(sections)

    def render(self, program=None, top: int = 10) -> str:
        """Full text report: heatmap (when the program is available,
        replacing the flat site table) plus the tabular sections."""
        from .emit import render_tables_text

        parts = []
        if program is not None:
            parts.append(self.heatmap(program))
        parts.append(render_tables_text(
            self.tables(top=top, include_sites=program is None)))
        return "\n\n".join(part for part in parts if part)


def atlas_from_records(records: list[dict], machine,
                       weights: dict[str, float] | None = None,
                       context: dict | None = None) -> Atlas:
    """Build an atlas from exported telemetry records (``trial`` plus
    optional ``taint_summary`` kinds), anchoring sites with one golden
    replay of ``machine``.  ``weights`` maps stratum keys to population
    shares (e.g. from ``fault_space_stratum`` records); ``None``
    self-weights by sampled share."""
    trials = [r for r in records if r.get("kind") == "trial"]
    summaries = [r for r in records if r.get("kind") == "taint_summary"]
    acc = AtlasAccumulator()
    locations = collect_site_locations(
        machine, [r.get("dynamic_index", -1) for r in trials
                  if r.get("fault_landed", True)])
    acc.golden_instructions = machine.icount
    acc.add_records(trials, summaries, locations)
    return Atlas.from_accumulator(acc, weights=weights, context=context)
