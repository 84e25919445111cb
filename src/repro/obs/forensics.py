"""Escape forensics: turn taint streams into per-trial *mechanisms*.

A campaign with ``--taint`` produces, per trial, a ``trial`` record
(outcome, fault site) and a ``taint_summary`` record (what the injected
bit's corruption did: first escape, first control divergence, first
repair, residual taint -- see :mod:`repro.sim.taint`).  This module
joins the two and names the **mechanism** that decided each trial's
fate, answering the questions aggregate unACE/SDC/SEGV percentages
cannot: *which* vote repaired the fault, *which* store let it out,
*why* was that bit flip benign.

Mechanism taxonomy (one per trial):

==========================  =============================================
``never-landed``            run ended before the flip could happen
``detected-by-check``       a SWIFT comparison fired (the DUE outcome)
``repaired-by-vote``        a voter (SWIFT-R) moved a clean copy over
                            the tainted register
``detected-by-ancheck``     an AN-code/TRUMP recovery block rebuilt the
                            value from the clean encoded copy
``squashed-by-mask``        a masking operation (AND with a constant,
                            multiply by clean zero, ...) provably
                            cleared every tainted bit
``dead-value-overwritten``  the tainted register/cell was overwritten
                            from clean sources before being read
``dead-value-unread``       the tainted register was never read at all
``benign-residual-taint``   taint stayed live (possibly to exit) but
                            every value it reached was still correct
``escaped-via-store``       tainted data was stored outside the frame
                            and the output corrupted (SDC)
``escaped-via-output``      tainted data reached a print/output
                            instruction directly (SDC)
``control-divergence``      a non-protection branch read taint and the
                            run took a wrong path (SDC/Hang)
``wild-address-trap``       a tainted address caused the trap (SEGV)
``trapped``                 SEGV with no taint activity at the trap
``hung``                    budget exhausted without an observed
                            divergence
``unattributed``            failure with no matching taint evidence
``no-taint-data``           the trial has no taint stream at all
==========================  =============================================

The classification reads only the summary record (whose ``first_*``
fields embed the decisive event records verbatim), so it is immune to
the per-trial event cap -- a truncated stream still attributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Taxonomy order used by every report (stable across runs).
MECHANISMS = (
    "repaired-by-vote",
    "detected-by-ancheck",
    "detected-by-check",
    "squashed-by-mask",
    "dead-value-overwritten",
    "dead-value-unread",
    "benign-residual-taint",
    "escaped-via-store",
    "escaped-via-output",
    "control-divergence",
    "wild-address-trap",
    "trapped",
    "hung",
    "never-landed",
    "unattributed",
    "no-taint-data",
)

#: Event counts that show the tainted value was actually *read*.
_READ_EVENTS = (
    "propagated", "loaded", "stored", "checked", "branched",
    "escaped-to-output", "wild-address", "wild-store",
    "masked", "overwritten", "voted-out", "repaired",
)


def _group_key(record: dict) -> str:
    parts = [str(record[key]) for key in ("benchmark", "technique")
             if key in record]
    return "/".join(parts) or "(all)"


def _earliest(*candidates: tuple[str, dict | None]) -> tuple[str, dict] | None:
    """Pick the (mechanism, event) pair with the lowest icount."""
    present = [(mech, ev) for mech, ev in candidates if ev]
    if not present:
        return None
    return min(present, key=lambda pair: pair[1].get("icount", 0))


def classify_trial(trial: dict, summary: dict | None) -> dict:
    """Name the mechanism that decided one trial.

    ``trial`` is a :class:`~repro.obs.campaign_log.TrialRecord` dict;
    ``summary`` is the trial's ``taint_summary`` record (or ``None``
    when the campaign ran without ``--taint``).  Returns a dict with
    ``mechanism`` plus, for escapes, the decisive ``event`` record
    (instruction, location, icount).
    """
    result = {
        "trial": trial.get("trial"),
        "outcome": trial.get("outcome"),
        "mechanism": "unattributed",
        "event": None,
    }
    if not trial.get("fault_landed", True):
        result["mechanism"] = "never-landed"
        return result
    if summary is None:
        result["mechanism"] = "no-taint-data"
        return result

    outcome = trial.get("outcome")
    counts = summary.get("counts") or {}
    first_escape = summary.get("first_escape")
    first_control = summary.get("first_control")
    first_wild = summary.get("first_wild")
    first_repair = summary.get("first_repair")

    if outcome == "DUE":
        result["mechanism"] = "detected-by-check"
        result["event"] = first_escape or first_control
        return result

    if outcome == "SDC":
        escape_mech = "escaped-via-output"
        if first_escape and first_escape.get("event") == "stored":
            escape_mech = "escaped-via-store"
        pick = _earliest(
            (escape_mech, first_escape),
            ("escaped-via-store", first_wild),
            ("control-divergence", first_control),
        )
        if pick:
            result["mechanism"], result["event"] = pick
        return result

    if outcome == "SEGV":
        if first_wild:
            result["mechanism"] = "wild-address-trap"
            result["event"] = first_wild
        elif first_control:
            result["mechanism"] = "control-divergence"
            result["event"] = first_control
        else:
            result["mechanism"] = "trapped"
        return result

    if outcome == "Hang":
        if first_control:
            result["mechanism"] = "control-divergence"
            result["event"] = first_control
        else:
            result["mechanism"] = "hung"
        return result

    # unACE: the fault was absorbed -- say how.
    if first_repair:
        if first_repair.get("event") == "voted-out":
            result["mechanism"] = "repaired-by-vote"
        else:
            result["mechanism"] = "detected-by-ancheck"
        result["event"] = first_repair
    elif counts.get("masked"):
        result["mechanism"] = "squashed-by-mask"
    elif counts.get("overwritten"):
        result["mechanism"] = "dead-value-overwritten"
    elif not any(counts.get(event) for event in _READ_EVENTS):
        result["mechanism"] = "dead-value-unread"
    else:
        result["mechanism"] = "benign-residual-taint"
    return result


@dataclass
class ForensicsReport:
    """Per-trial attributions grouped by campaign cell."""

    #: ``{group: [attribution dict, ...]}`` in trial order; each
    #: attribution is :func:`classify_trial`'s result plus ``group``.
    groups: dict[str, list[dict]] = field(default_factory=dict)

    @property
    def attributions(self) -> list[dict]:
        return [a for members in self.groups.values() for a in members]

    def mechanism_counts(self, group: str | None = None) -> dict[str, int]:
        members = (self.attributions if group is None
                   else self.groups.get(group, []))
        counts: dict[str, int] = {}
        for attribution in members:
            mech = attribution["mechanism"]
            counts[mech] = counts.get(mech, 0) + 1
        return counts

    def escapes(self, group: str | None = None) -> list[dict]:
        """The failing trials, each with its decisive event (if any)."""
        members = (self.attributions if group is None
                   else self.groups.get(group, []))
        return [a for a in members
                if a["outcome"] in ("SDC", "SEGV", "Hang")]


def analyze_records(records: list[dict]) -> ForensicsReport:
    """Join trial and taint_summary records into a forensics report.

    Accepts the full mixed-kind record list of a telemetry file (other
    kinds are ignored), so ``analyze_records(load_telemetry(path))`` works
    on any campaign export.
    """
    summaries: dict[tuple[str, int], dict] = {}
    for record in records:
        if record.get("kind") == "taint_summary":
            summaries[(_group_key(record), record.get("trial"))] = record
    report = ForensicsReport()
    for record in records:
        if record.get("kind") != "trial":
            continue
        group = _group_key(record)
        summary = summaries.get((group, record.get("trial")))
        attribution = classify_trial(record, summary)
        attribution["group"] = group
        report.groups.setdefault(group, []).append(attribution)
    return report


def analyze_log(log) -> ForensicsReport:
    """Forensics for an in-memory :class:`~repro.obs.CampaignLog`."""
    return analyze_records(log.to_dicts() + log.taint_dicts())


def _event_cell(attribution: dict) -> tuple[str, str, str]:
    """(event, instruction, location) columns of an attribution row."""
    event = attribution.get("event")
    if not event:
        return "-", "-", "-"
    return (event.get("event", "-"), event.get("instr", "-"),
            f"{event.get('loc', '?')}@{event.get('icount', '?')}")


def forensics_tables(report: ForensicsReport) -> list:
    """The report as shared :class:`~repro.obs.emit.Table` objects:
    one mechanism-count table per campaign cell, plus a failure table
    for cells that had escapes."""
    from .emit import Table

    tables = []
    for group in sorted(report.groups):
        members = report.groups[group]
        counts = report.mechanism_counts(group)
        total = len(members)
        rows = []
        for mech in MECHANISMS:
            n = counts.get(mech, 0)
            if n:
                rows.append([mech, str(n), f"{100.0 * n / total:6.2f}"])
        tables.append(Table(
            title=f"{group}: {total} trials",
            columns=["mechanism", "count", "percent"],
            rows=rows,
        ))
        escapes = report.escapes(group)
        if escapes:
            rows = []
            for attribution in escapes:
                event, instr, where = _event_cell(attribution)
                rows.append([
                    str(attribution["trial"]), attribution["outcome"],
                    attribution["mechanism"], event, instr, where,
                ])
            tables.append(Table(
                title=f"{group}: failure forensics",
                columns=["trial", "outcome", "mechanism", "event",
                         "instruction", "where"],
                rows=rows,
            ))
    return tables


def render_report(report: ForensicsReport, fmt: str = "text") -> str:
    """Render a forensics report (text tables or a JSON document)."""
    from .emit import emit_tables

    return emit_tables(forensics_tables(report), fmt, kind="forensics",
                       empty="(no trial records)")


def forensics_path(path: str, fmt: str = "text") -> str:
    """Read a campaign telemetry file and render its forensics."""
    from .sink import load_telemetry

    return render_report(analyze_records(load_telemetry(path)), fmt)
