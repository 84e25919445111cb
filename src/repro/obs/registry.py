"""Campaign ledger: a content-addressed, persistent run registry.

Every observability layer so far -- telemetry, forensics, profiler,
atlas, convergence audit -- sees exactly one campaign and forgets it
when the process exits.  The paper's central claims are *comparisons*
(SWIFT vs SWIFT-R vs TRUMP trade-offs), and comparisons need a place
where runs outlive processes.  This module is that place:

``.repro/runs/`` (override with ``--runs-dir`` or the
``REPRO_RUNS_DIR`` environment variable) holds

* ``ledger.jsonl`` -- an append-only event log (``run_stored`` /
  ``run_tagged`` / ``run_removed``) that :meth:`RunRegistry.entries`
  folds into the current ledger state;
* ``<run_id>/manifest.json`` -- the run's identity: workload,
  technique, fault model, seed, config fingerprint captured at run
  time (see ``CampaignResult.config``), a sha256 of the protected
  binary's assembly, the host environment fingerprint shared with
  ``bench_meta`` files, and the deterministic result summary;
* ``<run_id>/*.jsonl[.gz]`` -- the artifacts: per-trial telemetry,
  the reliability atlas, adaptive batch/stratum records, taint
  summaries.

The run id **is** the first 16 hex digits of the sha256 of the
canonical manifest JSON (artifact hashes included), so identical
campaigns -- same binary, same seed, same config, same outcomes --
store to the same id regardless of ``--jobs``: re-storing is a cache
hit.  ``campaign --store`` goes one step further and probes the ledger
before running (:func:`repro.eval.spec.find_cached`), so a repeat
executes no trials at all.  Wall-clock timings never enter a manifest or an
artifact; timestamps live only in ledger events.

Crash safety: artifacts are written through
:class:`~repro.obs.sink.JsonlSink` in atomic mode into a staging
directory that is renamed to ``<run_id>/`` only once the manifest is
on disk -- a killed store leaves staging litter (reaped by ``obs runs
--gc``), never a half-written run.

On top of the ledger sit three CLI surfaces, all rendered through the
shared :mod:`repro.obs.emit` table layer:

* ``obs runs``     -- list / filter / garbage-collect the ledger;
* ``obs diff A B`` -- statistically honest cross-run comparison:
  two-proportion score tests per outcome, per-instruction atlas drift,
  detection-latency shift; refuses when the manifests differ on more
  than one identity axis;
* ``obs history``  -- one metric's trajectory across stored runs with
  direction-aware regression flagging (:func:`is_regression`).

The ledger and its artifacts are read through
:func:`~repro.obs.sink.load_telemetry`, so a file cut mid-record
raises :class:`~repro.obs.sink.TelemetryError` naming its path and
line instead of a ``json`` traceback.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import time
from dataclasses import dataclass

from .emit import Table
from .sink import JsonlSink, environment_fingerprint, load_telemetry

#: Bump when the manifest shape changes incompatibly.
REGISTRY_SCHEMA_VERSION = 1

#: Ledger location: CLI flag > environment > default.
DEFAULT_RUNS_DIR = os.path.join(".repro", "runs")
RUNS_DIR_ENV = "REPRO_RUNS_DIR"

#: Identity axes an ``obs diff`` is allowed to vary one of.  Everything
#: else in a manifest (code hash, golden instruction count, results) is
#: *derived* from these, so only axis differences are counted when
#: deciding whether two runs are comparable.
AXES = ("workload", "technique", "config")

#: Outcome-bucket labels for atlas drift, most severe first (the order
#: breaks ties when a site's counts split evenly).
_BUCKETS = ("SDC", "SEGV", "Hang", "DUE", "unACE")

#: ``obs history`` metrics: manifest outcome sets and gate direction.
HISTORY_METRICS: dict[str, tuple[tuple[str, ...], str]] = {
    "unace": (("unACE",), "higher"),
    "detected": (("DUE",), "higher"),
    "sdc": (("SDC", "Hang"), "lower"),
    "segv": (("SEGV",), "lower"),
    "failure": (("SDC", "Hang", "SEGV"), "lower"),
}


class RegistryError(ValueError):
    """A ledger operation that cannot proceed (bad ref, axis clash)."""


def runs_root(override: str | None = None) -> str:
    """Resolve the ledger directory: explicit > env > default."""
    return (override or os.environ.get(RUNS_DIR_ENV) or DEFAULT_RUNS_DIR)


def canonical_json(value) -> str:
    """The byte-stable serialization run ids are hashed over."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def manifest_run_id(manifest: dict) -> str:
    return hashlib.sha256(
        canonical_json(manifest).encode("utf-8")).hexdigest()[:16]


def program_sha256(program) -> str:
    """Content hash of a protected binary: its printed assembly, which
    captures instructions, layout, and data -- the "code/ISA version"
    axis of a manifest."""
    from ..isa import print_program

    return hashlib.sha256(print_program(program).encode("utf-8")).hexdigest()


def build_manifest(*, workload: dict, technique: str, config: dict,
                   code_sha256: str, results: dict) -> dict:
    """Assemble the identity part of a run manifest (no artifacts yet;
    :meth:`RunRegistry.store` adds those and derives the run id)."""
    return {
        "kind": "run_manifest",
        "schema_version": REGISTRY_SCHEMA_VERSION,
        "workload": {key: workload[key] for key in sorted(workload)},
        "technique": technique,
        "config": {key: config[key] for key in sorted(config)},
        "code_sha256": code_sha256,
        "environment": environment_fingerprint(),
        "results": results,
    }


@dataclass(frozen=True)
class StoredRun:
    """What :meth:`RunRegistry.store` hands back."""

    run_id: str
    path: str
    created: bool          # False = content-addressed cache hit
    manifest: dict


class RunRegistry:
    """The ``.repro/runs/`` ledger: store, resolve, list, remove."""

    def __init__(self, root: str | None = None) -> None:
        self.root = runs_root(root)

    @property
    def ledger_path(self) -> str:
        return os.path.join(self.root, "ledger.jsonl")

    def run_dir(self, run_id: str) -> str:
        return os.path.join(self.root, run_id)

    # ------------------------------------------------------------- store
    def store(self, manifest: dict, artifacts: dict[str, list[dict]],
              tag: str = "") -> StoredRun:
        """Write one run: artifacts first (atomic, into staging), then
        the manifest, then one rename into place, then a ledger event.

        ``manifest`` is the :func:`build_manifest` dict; ``artifacts``
        maps artifact names to record lists (``trials`` is compressed).
        Returns a :class:`StoredRun` whose ``created`` is ``False``
        when an identical run was already stored (the cache hit); a
        ``tag`` is recorded either way.
        """
        os.makedirs(self.root, exist_ok=True)
        staging = os.path.join(
            self.root, f".staging-{os.getpid()}-{int(time.time() * 1e6)}")
        os.makedirs(staging)
        manifest = dict(manifest)
        manifest["artifacts"] = {}
        try:
            for name in sorted(artifacts):
                records = artifacts[name]
                filename = (f"{name}.jsonl.gz" if name == "trials"
                            else f"{name}.jsonl")
                with JsonlSink(os.path.join(staging, filename),
                               atomic=True) as sink:
                    sink.open()
                    sink.write_many(records)
                data = open(os.path.join(staging, filename), "rb").read()
                manifest["artifacts"][name] = {
                    "file": filename,
                    "sha256": hashlib.sha256(data).hexdigest(),
                    "bytes": len(data),
                    "records": len(records),
                }
            run_id = manifest_run_id(manifest)
            with open(os.path.join(staging, "manifest.json"), "w") as out:
                out.write(json.dumps(manifest, indent=1, sort_keys=True))
                out.write("\n")
            final = self.run_dir(run_id)
            if os.path.isdir(final):
                created = False
                shutil.rmtree(staging)
            else:
                created = True
                os.rename(staging, final)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        event = {"tag": tag} if tag else {}
        if created:
            results = manifest.get("results", {})
            event.update(
                workload=_workload_label(manifest),
                technique=manifest.get("technique"),
                seed=manifest.get("config", {}).get("seed"),
                trials=results.get("trials"),
                outcomes=results.get("outcomes", {}),
            )
        self._append_event("run_stored" if created else "run_tagged",
                           run_id, **event)
        return StoredRun(run_id=run_id, path=self.run_dir(run_id),
                         created=created, manifest=manifest)

    def tag(self, run_id: str, tag: str) -> None:
        """Record ``tag`` on an already-stored run (a ``run_tagged``
        event), so ``obs diff``/``obs history`` resolve it."""
        self._append_event("run_tagged", run_id, tag=tag)

    def _append_event(self, kind: str, run_id: str, **fields) -> None:
        """Append one timestamped event to ``ledger.jsonl`` -- the
        ledger's only writer."""
        event = {"kind": kind, "run": run_id, "ts": round(time.time(), 3)}
        event.update(fields)
        with open(self.ledger_path, "a") as ledger:
            ledger.write(canonical_json(event))
            ledger.write("\n")

    # ------------------------------------------------------------ ledger
    def entries(self) -> list[dict]:
        """Fold the event log into the live ledger: one dict per stored
        run, in first-stored order, with its accumulated tags."""
        if not os.path.isfile(self.ledger_path):
            return []
        runs: dict[str, dict] = {}
        for event in load_telemetry(self.ledger_path):
            run_id = event.get("run")
            if not run_id:
                continue
            kind = event.get("kind")
            if kind == "run_stored":
                entry = runs.setdefault(run_id, {
                    "run": run_id, "tags": [], "ts": event.get("ts")})
                for key in ("workload", "technique", "seed", "trials",
                            "outcomes"):
                    if key in event:
                        entry[key] = event[key]
                if event.get("tag") and event["tag"] not in entry["tags"]:
                    entry["tags"].append(event["tag"])
            elif kind == "run_tagged" and run_id in runs:
                tag = event.get("tag")
                if tag and tag not in runs[run_id]["tags"]:
                    runs[run_id]["tags"].append(tag)
            elif kind == "run_removed":
                runs.pop(run_id, None)
        entries = list(runs.values())
        for entry in entries:
            entry["present"] = os.path.isfile(
                os.path.join(self.run_dir(entry["run"]), "manifest.json"))
        return entries

    def resolve(self, ref: str) -> str:
        """A run id prefix or a tag -> the full run id (latest wins for
        tags reused across runs)."""
        entries = self.entries()
        tagged = [e for e in entries if ref in e["tags"]]
        if tagged:
            return tagged[-1]["run"]
        prefixed = [e["run"] for e in entries
                    if e["run"].startswith(ref)] if ref else []
        if len(prefixed) == 1:
            return prefixed[0]
        if len(prefixed) > 1:
            raise RegistryError(
                f"ambiguous run ref {ref!r}: matches "
                + ", ".join(sorted(prefixed)))
        raise RegistryError(
            f"no stored run matches {ref!r} in {self.root} "
            "(see `obs runs` for ids and tags)")

    def manifest(self, run_id: str) -> dict:
        path = os.path.join(self.run_dir(run_id), "manifest.json")
        try:
            with open(path) as handle:
                return json.load(handle)
        except (OSError, ValueError) as exc:
            raise RegistryError(
                f"cannot load manifest for run {run_id}: {exc}") from None

    def artifact_records(self, run_id: str, name: str) -> list[dict]:
        """Load one artifact's records (empty when the run lacks it)."""
        entry = self.manifest(run_id).get("artifacts", {}).get(name)
        if entry is None:
            return []
        return load_telemetry(os.path.join(self.run_dir(run_id),
                                           entry["file"]))

    def atlas_of(self, run_id: str):
        """The run's stored :class:`~repro.obs.atlas.Atlas`, or None."""
        from .atlas import Atlas

        records = self.artifact_records(run_id, "atlas")
        return Atlas(records[0]) if records else None

    def staging_dirs(self) -> list[str]:
        """Leftover ``.staging-*`` directories: a store that died
        between staging and rename.  Harmless litter -- never a
        half-stored run -- listed by ``obs runs`` under a STAGING flag
        and reclaimed by :meth:`gc`."""
        if not os.path.isdir(self.root):
            return []
        return sorted(
            name for name in os.listdir(self.root)
            if name.startswith(".staging-")
            and os.path.isdir(os.path.join(self.root, name)))

    # ----------------------------------------------------------- removal
    def remove(self, run_id: str) -> None:
        shutil.rmtree(self.run_dir(run_id), ignore_errors=True)
        self._append_event("run_removed", run_id)

    def gc(self) -> list[str]:
        """Reap untagged runs and staging litter; tagged runs stay."""
        removed = []
        entries = self.entries()
        for entry in entries:
            if not entry["tags"]:
                self.remove(entry["run"])
                removed.append(entry["run"])
        keep = {e["run"] for e in entries if e["tags"]}
        if os.path.isdir(self.root):
            for name in sorted(os.listdir(self.root)):
                path = os.path.join(self.root, name)
                if not os.path.isdir(path) or name in keep:
                    continue
                if (name.startswith(".staging-")
                        or not os.path.isfile(
                            os.path.join(path, "manifest.json"))
                        or name not in {e["run"] for e in entries}):
                    shutil.rmtree(path, ignore_errors=True)
                    if name not in removed:
                        removed.append(name)
        return removed


# ------------------------------------------------------------ store_campaign
def store_campaign(registry: RunRegistry, *, workload: dict,
                   technique: str, seed: int, result, log, program,
                   weights: dict[str, float] | None = None,
                   adaptive=None, tag: str = "") -> StoredRun:
    """Assemble one campaign's manifest + artifacts and store them.

    ``result`` is the :class:`~repro.faults.campaign.CampaignResult`
    (its run-time ``config`` capture becomes the manifest's config
    fingerprint), ``log`` the :class:`~repro.obs.campaign_log.CampaignLog`
    holding every trial, and ``program`` the protected binary -- hashed
    for the manifest and replayed once to anchor the stored atlas, so
    ``obs diff`` always has per-instruction drift data.  ``adaptive``
    (an :class:`~repro.stats.sequential.AdaptiveResult`) adds the
    stopping verdict and the batch/stratum artifact; ``weights`` are
    its population stratum weights for the atlas.
    """
    from ..sim.machine import Machine
    from .atlas import atlas_from_records

    config = dict(result.config)
    config.setdefault("fault_model", "register-seu")
    config["seed"] = seed
    results = result.summary_dict()
    if adaptive is not None:
        config.update(adaptive.config.config_dict())
        results["adaptive"] = adaptive.summary_dict()
    trial_dicts = log.to_dicts()
    taint_dicts = log.taint_dicts()
    artifacts: dict[str, list[dict]] = {"trials": trial_dicts}
    summaries = [r for r in taint_dicts
                 if r.get("kind") == "taint_summary"]
    if summaries:
        artifacts["taint"] = summaries
    context = dict(workload, technique=technique, seed=seed)
    if adaptive is not None:
        artifacts["adaptive"] = (adaptive.batch_dicts(context)
                                 + adaptive.stratum_dicts(context))
    atlas = atlas_from_records(
        trial_dicts + taint_dicts, Machine(program), weights=weights,
        context=dict(context, trials=results["trials"]))
    artifacts["atlas"] = [atlas.payload]
    manifest = build_manifest(
        workload=workload, technique=technique, config=config,
        code_sha256=program_sha256(program), results=results)
    return registry.store(manifest, artifacts, tag=tag)


def store_timing(registry: RunRegistry, *, workload: dict,
                 technique: str, program, record: dict,
                 tag: str = "") -> StoredRun:
    """Store one fault-free timing run (fig9's cells).

    ``record`` is the ``kind="timing"`` telemetry dict; its wall-clock
    ``elapsed`` field is stripped so the manifest stays
    content-addressed on the cycle-accurate results alone.
    """
    timing = {key: value for key, value in sorted(record.items())
              if key not in ("kind", "benchmark", "technique",
                             "elapsed")}
    manifest = build_manifest(
        workload=workload, technique=technique,
        config={"fault_model": None, "timing": True, "seed": None},
        code_sha256=program_sha256(program),
        results={"trials": 0, "outcomes": {}, "timing": timing})
    artifact = dict(timing, kind="timing", **{
        key: record[key] for key in ("benchmark", "technique")
        if key in record})
    return registry.store(manifest, {"timing": [artifact]}, tag=tag)


# ------------------------------------------------------------------ helpers
def _workload_label(manifest: dict) -> str:
    workload = manifest.get("workload", {})
    return str(workload.get("benchmark") or workload.get("source")
               or "?")


def _rate(outcomes: dict, trials, keys: tuple[str, ...]) -> float | None:
    if not trials:
        return None
    return sum(outcomes.get(key, 0) for key in keys) / trials


def _stamp(ts) -> str:
    if not ts:
        return "-"
    return time.strftime("%Y-%m-%d %H:%M", time.localtime(ts))


def _short(run_id: str) -> str:
    return run_id[:12]


# ----------------------------------------------------------------- obs runs
def runs_tables(registry: RunRegistry, tag: str = "",
                workload: str = "", technique: str = "") -> list[Table]:
    """The ledger as one table, oldest first, optionally filtered."""
    entries = registry.entries()
    if tag:
        entries = [e for e in entries if tag in e["tags"]]
    if workload:
        entries = [e for e in entries if e.get("workload") == workload]
    if technique:
        entries = [e for e in entries if e.get("technique") == technique]
    rows = []
    for entry in entries:
        outcomes = entry.get("outcomes", {})
        trials = entry.get("trials") or 0
        unace = _rate(outcomes, trials, ("unACE",))
        fail = _rate(outcomes, trials, ("SDC", "Hang", "SEGV"))
        rows.append([
            _short(entry["run"]),
            ",".join(entry["tags"]) or "-",
            _stamp(entry.get("ts")),
            entry.get("workload", "?"),
            entry.get("technique", "?"),
            entry.get("seed", "?"),
            trials,
            f"{100 * unace:6.2f}" if unace is not None else "-",
            f"{100 * fail:6.2f}" if fail is not None else "-",
            "" if entry["present"] else "MISSING",
        ])
    runs = len(rows)
    notes = []
    staging = registry.staging_dirs() if not (tag or workload
                                              or technique) else []
    for name in staging:
        try:
            ts = os.path.getmtime(os.path.join(registry.root, name))
        except OSError:
            ts = None
        rows.append([name, "-", _stamp(ts), "-", "-", "-", "-", "-",
                     "-", "STAGING"])
    if staging:
        notes.append(f"{len(staging)} staging dir(s) left by crashed "
                     "store(s); reclaim with `obs runs --gc`")
    title = f"Run ledger ({registry.root}): {runs} run(s)"
    if staging:
        title += f" + {len(staging)} staging"
    return [Table(
        title=title,
        columns=["run", "tags", "stored", "workload", "technique",
                 "seed", "trials", "unACE%", "fail%", ""],
        rows=rows, notes=notes,
    )] if rows else []


# ----------------------------------------------------------------- obs diff
def _axis_differences(a: dict, b: dict) -> list[str]:
    """Which identity axes two manifests disagree on.  Config keys are
    compared individually so "same campaign, different seed" counts as
    one axis, not a whole-config blob."""
    diffs = []
    if _workload_label(a) != _workload_label(b):
        diffs.append("workload")
    if a.get("technique") != b.get("technique"):
        diffs.append("technique")
    config_a = a.get("config", {})
    config_b = b.get("config", {})
    for key in sorted(set(config_a) | set(config_b)):
        if config_a.get(key) != config_b.get(key):
            diffs.append(f"config.{key}")
    return diffs


def _site_buckets(atlas) -> dict[str, dict]:
    """loc -> {bucket, instr, wfail} for every anchored instruction."""
    sites: dict[str, dict] = {}
    if atlas is None:
        return sites
    for row in atlas.site_rows():
        if row["loc"].startswith("("):
            continue                       # pseudo-buckets, not code
        counts = row["counts"]
        bucket = max(_BUCKETS,
                     key=lambda o: (counts.get(o, 0),
                                    -_BUCKETS.index(o)))
        if not counts.get(bucket, 0):
            continue
        sites[row["loc"]] = {
            "bucket": bucket,
            "instr": row["instr"],
            "wfail": row["failure_share"],
        }
    return sites


def _latency_values(records: list[dict]) -> list[int]:
    return [r["detection_latency"] for r in records
            if r.get("kind") == "trial"
            and r.get("detection_latency") is not None]


def diff_tables(registry: RunRegistry, ref_a: str, ref_b: str,
                confidence: float = 0.95, top: int = 10,
                force: bool = False) -> list[Table]:
    """``obs diff A B``: the honest comparison.

    Raises :class:`RegistryError` when the two manifests differ on
    more than one identity axis (unless ``force``): a diff that varies
    technique *and* seed *and* trial budget attributes nothing, which
    is precisely the mistake cross-technique comparisons die of.
    """
    from ..stats.estimators import outcome_rate_tests

    id_a = registry.resolve(ref_a)
    id_b = registry.resolve(ref_b)
    man_a = registry.manifest(id_a)
    man_b = registry.manifest(id_b)
    axes = _axis_differences(man_a, man_b)
    if len(axes) > 1 and not force:
        raise RegistryError(
            "refusing to diff: runs differ on more than one axis "
            f"({', '.join(axes)}); a multi-axis diff attributes "
            "nothing to anything.  Store runs that vary a single "
            "knob, or pass --force to compare anyway.")
    tables = []

    # -- identity ------------------------------------------------------
    def identity_row(label, picker):
        va, vb = picker(man_a), picker(man_b)
        return [label, va, vb, "" if va == vb else "differs"]

    rows = [
        ["run", _short(id_a), _short(id_b), ""],
        identity_row("workload", _workload_label),
        identity_row("technique", lambda m: m.get("technique", "?")),
        identity_row("seed",
                     lambda m: m.get("config", {}).get("seed", "?")),
        identity_row("trials",
                     lambda m: m.get("results", {}).get("trials", "?")),
        identity_row("code sha256",
                     lambda m: str(m.get("code_sha256", "?"))[:12]),
        identity_row(
            "golden instructions",
            lambda m: m.get("results", {}).get("golden_instructions",
                                               "?")),
    ]
    notes = []
    if axes:
        notes.append("varied axis: " + ", ".join(axes))
    else:
        notes.append("identical identity axes (self-diff or re-run)")
    if man_a.get("environment") != man_b.get("environment"):
        notes.append("note: runs come from different environments "
                     "(results are deterministic, timings were not "
                     "stored)")
    tables.append(Table(title=f"Run comparison: {ref_a} vs {ref_b}",
                        columns=["field", "A", "B", ""], rows=rows,
                        notes=notes))

    # -- outcome-rate deltas ------------------------------------------
    res_a = man_a.get("results", {})
    res_b = man_b.get("results", {})
    trials_a = res_a.get("trials", 0)
    trials_b = res_b.get("trials", 0)
    significant = 0
    if trials_a and trials_b:
        tests = outcome_rate_tests(
            res_a.get("outcomes", {}), trials_a,
            res_b.get("outcomes", {}), trials_b, confidence=confidence)
        rows = []
        for outcome, test in tests.items():
            n_a = res_a.get("outcomes", {}).get(outcome, 0)
            n_b = res_b.get("outcomes", {}).get(outcome, 0)
            if test.significant:
                significant += 1
            rows.append([
                outcome,
                f"{n_a} ({100 * n_a / trials_a:6.2f}%)",
                f"{n_b} ({100 * n_b / trials_b:6.2f}%)",
                f"{100 * test.diff:+7.2f}",
                f"{test.z:6.2f}",
                f"{test.p_value:.2g}",
                "significant" if test.significant else "",
            ])
        tables.append(Table(
            title=(f"Outcome-rate deltas (A-B, two-proportion score "
                   f"test at {confidence:.0%})"),
            columns=["outcome", "A", "B", "delta pts", "z", "p", ""],
            rows=rows,
        ))

    # -- atlas drift ---------------------------------------------------
    sites_a = _site_buckets(registry.atlas_of(id_a))
    sites_b = _site_buckets(registry.atlas_of(id_b))
    drifted = []
    for loc in sorted(set(sites_a) | set(sites_b)):
        a = sites_a.get(loc)
        b = sites_b.get(loc)
        bucket_a = a["bucket"] if a else "(absent)"
        bucket_b = b["bucket"] if b else "(absent)"
        if bucket_a == bucket_b:
            continue
        drifted.append({
            "loc": loc,
            "instr": (a or b)["instr"],
            "from": bucket_a,
            "to": bucket_b,
            "wfail": max(a["wfail"] if a else 0.0,
                         b["wfail"] if b else 0.0),
        })
    drifted.sort(key=lambda d: (-d["wfail"], d["loc"]))
    if sites_a or sites_b:
        rows = [
            [d["loc"], d["instr"], f"{d['from']} -> {d['to']}",
             f"{100 * d['wfail']:6.2f}"]
            for d in drifted[:top]
        ]
        title = (f"Atlas drift: {len(drifted)} of "
                 f"{len(set(sites_a) | set(sites_b))} site(s) changed "
                 f"outcome bucket")
        notes = []
        if len(drifted) > top:
            notes.append(f"showing top {top} by weighted failure "
                         f"share; {len(drifted) - top} more drifted")
        if not drifted:
            rows = []
            notes.append("every anchored instruction kept its "
                         "dominant outcome")
        tables.append(Table(title=title,
                            columns=["site", "instr", "bucket",
                                     "wfail%"],
                            rows=rows, notes=notes))

    # -- detection-latency shift --------------------------------------
    lat_a = _latency_values(registry.artifact_records(id_a, "trials"))
    lat_b = _latency_values(registry.artifact_records(id_b, "trials"))
    if lat_a or lat_b:
        def describe(values):
            if not values:
                return "no detected trials"
            mean = sum(values) / len(values)
            return (f"{len(values)} detected, mean {mean:.1f}, "
                    f"max {max(values)}")

        notes = []
        if lat_a and lat_b:
            mean_a = sum(lat_a) / len(lat_a)
            mean_b = sum(lat_b) / len(lat_b)
            var_a = (sum((v - mean_a) ** 2 for v in lat_a)
                     / max(len(lat_a) - 1, 1))
            var_b = (sum((v - mean_b) ** 2 for v in lat_b)
                     / max(len(lat_b) - 1, 1))
            se = math.sqrt(var_a / len(lat_a) + var_b / len(lat_b))
            z = (mean_a - mean_b) / se if se > 0 else 0.0
            p = math.erfc(abs(z) / math.sqrt(2.0))
            notes.append(
                f"mean shift {mean_a - mean_b:+.1f} dynamic "
                f"instructions (Welch z={z:.2f}, p={p:.2g})")
        tables.append(Table(
            title="Detection latency (dynamic instructions to "
                  "detection)",
            columns=["run", "latency"],
            rows=[["A", describe(lat_a)], ["B", describe(lat_b)]],
            notes=notes,
        ))

    # -- verdict -------------------------------------------------------
    sig_text = (f"{significant} significant outcome delta(s) at "
                f"{confidence:.0%}" if significant
                else "no significant outcome deltas")
    drift_text = (f"{len(drifted)} atlas site(s) changed bucket"
                  if drifted else "no atlas drift")
    tables.append(Table(title=f"verdict: {sig_text}; {drift_text}",
                        columns=[], rows=[]))
    return tables


# -------------------------------------------------------------- obs history
def is_regression(previous: float, current: float, direction: str,
                  tolerance: float) -> bool:
    """A higher-is-better metric regresses when it falls more than
    ``tolerance`` (a fraction) below the previous value, a
    lower-is-better one when it rises more than ``tolerance`` above
    it."""
    if direction == "higher":
        return current < previous * (1.0 - tolerance)
    return current > previous * (1.0 + tolerance)


def history_tables(registry: RunRegistry, metric: str = "unace",
                   tag: str = "", workload: str = "",
                   technique: str = "",
                   tolerance: float = 0.2) -> list[Table]:
    """One metric's trajectory across stored runs, oldest first, with
    :func:`is_regression` applied between consecutive runs."""
    if metric not in HISTORY_METRICS:
        raise RegistryError(
            f"unknown history metric {metric!r}; pick one of "
            + ", ".join(sorted(HISTORY_METRICS)))
    keys, direction = HISTORY_METRICS[metric]
    entries = registry.entries()
    if tag:
        entries = [e for e in entries if tag in e["tags"]]
    if workload:
        entries = [e for e in entries if e.get("workload") == workload]
    if technique:
        entries = [e for e in entries if e.get("technique") == technique]
    rows = []
    regressed = 0
    previous = None
    for entry in entries:
        value = _rate(entry.get("outcomes", {}), entry.get("trials"),
                      keys)
        if value is None:
            continue
        flag = ""
        if previous is not None and is_regression(
                previous, value, direction, tolerance):
            flag = "REGRESSED"
            regressed += 1
        bar = "#" * round(24 * value)
        rows.append([
            _short(entry["run"]),
            ",".join(entry["tags"]) or "-",
            entry.get("workload", "?"),
            entry.get("technique", "?"),
            entry.get("trials", "?"),
            f"{100 * value:6.2f}",
            bar,
            flag,
        ])
        previous = value
    if not rows:
        return []
    verdict = (f"{regressed} regression(s)" if regressed
               else "no regressions")
    return [Table(
        title=(f"History: {metric}% ({direction} is better), "
               f"{verdict} at tolerance {100 * tolerance:.0f}%"),
        columns=["run", "tags", "workload", "technique", "trials",
                 f"{metric}%", "", ""],
        rows=rows,
    )]
