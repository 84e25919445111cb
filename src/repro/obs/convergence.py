"""Coverage and convergence audit for adaptive campaigns.

An adaptive campaign's headline claim -- "the CI closed at N trials" --
is only trustworthy if (a) every stratum of the fault space actually
got sampled in proportion to what the estimator assumes, and (b) the
interval shrank the way sequential theory predicts.  This module
reconstructs both audits from exported telemetry:

* **Coverage** (``fault_space_stratum`` records, see
  :meth:`AdaptiveResult.stratum_dicts` and
  :meth:`FaultSpace.to_records`): per-(arm, stratum) population weight
  vs realized trials, flagging strata whose sampled share fell below
  half their population share (``UNDERSAMPLED``) or that were never
  hit at all (``UNSAMPLED`` -- the post-stratified estimate is then
  extrapolating).

* **Convergence** (``adaptive_batch`` records): the CI half-width
  timeline batch by batch, with a shrink bar scaled to the stopping
  target, so stalls (variance not shrinking) are visible at a glance.

* **Allocation efficiency**: the realized allocation's variance for
  the target metric against the Neyman-optimal variance for the same
  total budget -- ``var_neyman / var_realized``, 1.0 meaning the
  batch allocator spent trials exactly where the variance was.

Everything degrades gracefully: files without adaptive telemetry get a
pointer to ``--adaptive --telemetry`` instead of empty tables.
"""

from __future__ import annotations

import math

from .emit import Table
from .sink import _group_key

#: Sampled share below this fraction of population share flags a
#: stratum as undersampled.
UNDERSAMPLE_RATIO = 0.5

#: Width of the half-width shrink bar, in multiples of the target.
_BAR_CAP = 24


def _metric_successes(outcomes: dict, metric: str) -> int:
    """Successes for ``metric`` out of an Outcome.value -> count dict."""
    # Local import: repro.stats imports repro.obs at module scope, so
    # the reverse edge must stay inside the call.
    from ..stats.sequential import METRIC_OUTCOMES

    members = METRIC_OUTCOMES.get(metric, METRIC_OUTCOMES["unace"])
    return sum(outcomes.get(outcome.value, 0) for outcome in members)


def _coverage_table(group: str, strata: list[dict]) -> Table:
    rows = []
    flagged = 0
    arm_totals: dict[str, int] = {}
    for record in strata:
        arm = str(record.get("arm", ""))
        arm_totals[arm] = arm_totals.get(arm, 0) + record.get("trials", 0)
    for record in sorted(strata, key=lambda r: (str(r.get("arm", "")),
                                                str(r.get("stratum", "")))):
        arm = str(record.get("arm", ""))
        weight = float(record.get("weight", 0.0))
        trials = int(record.get("trials", 0))
        total = arm_totals[arm]
        expected = weight * total
        if trials == 0:
            flag = "UNSAMPLED"
        elif expected > 0 and trials < UNDERSAMPLE_RATIO * expected:
            flag = "UNDERSAMPLED"
        else:
            flag = ""
        if flag:
            flagged += 1
        row = [record.get("stratum", "?"), f"{100.0 * weight:7.3f}",
               trials,
               (f"{100.0 * trials / total:6.2f}" if total else "-"),
               f"{expected:7.1f}",
               (f"{trials / expected:5.2f}" if expected > 0 else "-"),
               flag]
        if arm:
            row.insert(0, arm)
        rows.append(row)
    columns = ["stratum", "weight%", "trials", "sampled%",
               "proportional", "ratio", "flag"]
    if any(r.get("arm") for r in strata):
        columns.insert(0, "arm")
    notes = []
    if flagged:
        notes.append(
            f"{flagged} stratum/strata flagged: the post-stratified "
            "estimate leans on few or zero trials there.")
    else:
        notes.append("All strata sampled at >= "
                     f"{UNDERSAMPLE_RATIO:.0%} of their population "
                     "share.")
    return Table(
        title=f"Stratum coverage ({group}): sampled vs population share",
        columns=columns, rows=rows, notes=notes)


def _efficiency_notes(strata: list[dict], metric: str) -> list[str]:
    """Realized-vs-Neyman variance per arm, as note lines."""
    arms: dict[str, list[dict]] = {}
    for record in strata:
        arms.setdefault(str(record.get("arm", "")), []).append(record)
    notes = []
    for arm in sorted(arms):
        records = arms[arm]
        label = f"arm {arm}" if arm else "campaign"
        total = sum(int(r.get("trials", 0)) for r in records)
        if total == 0:
            continue
        var_realized = 0.0
        sigma_sum = 0.0
        unsampled_weight = 0.0
        for record in records:
            weight = float(record.get("weight", 0.0))
            trials = int(record.get("trials", 0))
            if trials == 0:
                unsampled_weight += weight
                continue
            successes = _metric_successes(record.get("outcomes", {}),
                                          metric)
            p = successes / trials
            var_realized += weight * weight * p * (1.0 - p) / trials
            sigma_sum += weight * math.sqrt(p * (1.0 - p))
        if unsampled_weight > 0.0:
            notes.append(
                f"{label}: {100.0 * unsampled_weight:.1f}% of the "
                "population sits in unsampled strata; variance audit "
                "covers the rest.")
        if var_realized <= 0.0:
            notes.append(
                f"{label}: zero observed variance on metric "
                f"'{metric}' -- every sampled stratum was unanimous, "
                "allocation efficiency undefined.")
            continue
        var_neyman = sigma_sum * sigma_sum / total
        efficiency = var_neyman / var_realized
        notes.append(
            f"{label}: realized-vs-Neyman allocation efficiency "
            f"{efficiency:.2f} on metric '{metric}' "
            f"({total} trials; 1.00 = Neyman-optimal split).")
    return notes


def _timeline_table(group: str, batches: list[dict]) -> Table:
    target = float(batches[0].get("target", 0.0) or 0.0)
    metric = batches[0].get("metric", "unace")
    confidence = batches[0].get("confidence")
    rows = []
    for record in sorted(batches, key=lambda r: r.get("batch", 0)):
        half_width = float(record.get("half_width", 0.0))
        if target > 0.0:
            bar = "#" * min(_BAR_CAP, max(1, round(half_width / target)))
        else:
            bar = ""
        allocation = record.get("allocation", {})
        rows.append([
            record.get("batch", "?"),
            record.get("trials", 0),
            record.get("total_trials", 0),
            len([k for k, v in allocation.items() if v]),
            f"{100.0 * float(record.get('estimate', 0.0)):7.3f}",
            f"{100.0 * half_width:6.3f}",
            "met" if record.get("met") else "",
            bar,
        ])
    title = (f"CI half-width timeline ({group}): metric {metric}, "
             f"target {100.0 * target:.2f} pts")
    if confidence is not None:
        title += f" at {100.0 * float(confidence):.0f}%"
    notes = []
    last = rows[-1] if rows else None
    if last is not None:
        notes.append(
            f"Stopped after batch {last[0]} at {last[2]} trials; "
            + ("target met." if last[6] == "met"
               else "target NOT met (trial cap or starvation)."))
    return Table(
        title=title,
        columns=["batch", "trials", "total", "cells", "estimate%",
                 "half-width pts", "met", "shrink (x target)"],
        rows=rows, notes=notes)


def convergence_tables(records: list[dict]) -> list[Table]:
    """Build the full audit (coverage, efficiency, timelines) from a
    telemetry record stream, one table set per campaign group."""
    strata = [r for r in records if r.get("kind") == "fault_space_stratum"]
    batches = [r for r in records if r.get("kind") == "adaptive_batch"]
    groups: dict[str, dict[str, list[dict]]] = {}
    for record in strata:
        groups.setdefault(_group_key(record),
                          {"strata": [], "batches": []}
                          )["strata"].append(record)
    for record in batches:
        groups.setdefault(_group_key(record),
                          {"strata": [], "batches": []}
                          )["batches"].append(record)
    tables: list[Table] = []
    for group in sorted(groups):
        info = groups[group]
        if info["strata"]:
            audited = [r for r in info["strata"] if "trials" in r]
            table = _coverage_table(group, audited or info["strata"])
            if audited:
                metric = (info["batches"][0].get("metric", "unace")
                          if info["batches"] else "unace")
                table.notes.extend(_efficiency_notes(audited, metric))
            else:
                table.notes.append(
                    "Stratum records carry no trial counts (population "
                    "profile only); allocation not auditable.")
            tables.append(table)
        if info["batches"]:
            tables.append(_timeline_table(group, info["batches"]))
    if not tables:
        tables.append(Table(title="", columns=[], rows=[], notes=[
            "(no adaptive telemetry found: export with "
            "`repro campaign PROGRAM --adaptive --telemetry FILE`)"]))
    return tables
