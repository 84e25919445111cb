"""Campaign specs: one declarative description, one execution path.

A :class:`CampaignSpec` is everything that determines a campaign's
*results*: the workload (a suite benchmark, a mini-C source file, or
inline source text), the technique, the fault model, the seed, and
either a fixed trial budget or the adaptive stopping knobs.  ``jobs``
rides along as an execution hint but never enters the spec identity --
campaigns are bit-identical for any jobs value.

:func:`run_spec` is the single spec-to-run path.  The ``campaign``
CLI, the Figure-8 harness, and the service workers all call it, so a
spec executes the same way no matter who submitted it -- which is what
makes the service's ledger cache sound: :func:`expected_identity`
predicts the exact identity axes (workload, technique, config,
code sha256) that :func:`repro.obs.registry.store_campaign` will write,
and :func:`find_cached` scans the ledger for a stored manifest carrying
them.  A hit means the requested campaign already ran -- possibly by a
direct ``campaign --store`` from another process -- and its artifacts
can be served without executing a single trial.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields

#: Bump when the spec identity shape changes incompatibly.
SPEC_VERSION = 1

#: The only fault model the simulator injects today (single-event
#: upsets in architectural registers); the field exists so specs stay
#: forward-compatible when more models land.
FAULT_MODELS = ("register-seu",)

#: Metrics the adaptive stopping rule may target (mirrors
#: ``repro.stats.sequential.METRIC_OUTCOMES``).
METRICS = ("unace", "sdc", "segv", "failure", "detected")

#: The serial runner's default trial budget cap, matching
#: ``run_campaign``.  Suite workloads use the larger
#: ``eval.pipeline.MAX_INSTRUCTIONS`` via their prepared machines,
#: exactly as the Figure-8 harness does.
_DEFAULT_MAX_INSTRUCTIONS = 10_000_000


class SpecError(ValueError):
    """A campaign spec that cannot be validated or executed."""


@dataclass(frozen=True)
class CampaignSpec:
    """One campaign, declaratively.

    Exactly one of ``workload`` (suite benchmark name), ``source``
    (mini-C file path), or ``source_text`` (inline mini-C) names the
    program.  ``adaptive=False`` runs a fixed ``trials`` budget;
    ``adaptive=True`` runs the sequential engine with the stopping
    knobs and ignores ``trials``.
    """

    technique: str = "swiftr"
    workload: str = ""
    source: str = ""
    source_text: str = ""
    fault_model: str = "register-seu"
    seed: int = 0
    trials: int = 250
    adaptive: bool = False
    metric: str = "unace"
    ci_width: float = 0.025
    confidence: float = 0.95
    max_trials: int = 4000
    #: Worker processes *within* the campaign; results are identical
    #: for any value, so it is excluded from the identity key.
    jobs: int = 1

    # ------------------------------------------------------------ validate
    def __post_init__(self) -> None:
        from ..transform import Technique

        try:
            Technique(self.technique)
        except ValueError:
            choices = ", ".join(t.value for t in Technique)
            raise SpecError(f"unknown technique {self.technique!r} "
                            f"(choices: {choices})") from None
        axes = [bool(self.workload), bool(self.source),
                bool(self.source_text)]
        if sum(axes) != 1:
            raise SpecError(
                "a spec names exactly one program: a suite 'workload', "
                "a 'source' file path, or inline 'source_text'")
        if self.workload:
            from ..workloads import WORKLOADS

            if self.workload not in WORKLOADS:
                raise SpecError(
                    f"unknown workload {self.workload!r} "
                    "(see `python -m repro workloads`)")
        if self.fault_model not in FAULT_MODELS:
            raise SpecError(
                f"unknown fault model {self.fault_model!r} "
                f"(supported: {', '.join(FAULT_MODELS)})")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise SpecError(f"seed must be an integer, got {self.seed!r}")
        if not isinstance(self.trials, int) or self.trials < 1:
            raise SpecError(f"trials must be a positive integer, "
                            f"got {self.trials!r}")
        if self.metric not in METRICS:
            raise SpecError(f"unknown metric {self.metric!r} "
                            f"(choices: {', '.join(METRICS)})")
        if not 0.0 < self.ci_width < 1.0:
            raise SpecError(f"ci_width out of (0, 1): {self.ci_width!r}")
        if not 0.0 < self.confidence < 1.0:
            raise SpecError(
                f"confidence out of (0, 1): {self.confidence!r}")
        if not isinstance(self.max_trials, int) or self.max_trials < 1:
            raise SpecError(f"max_trials must be a positive integer, "
                            f"got {self.max_trials!r}")
        if not isinstance(self.jobs, int) or self.jobs < 0:
            raise SpecError(f"jobs must be a non-negative integer, "
                            f"got {self.jobs!r}")

    # --------------------------------------------------------- conversion
    @classmethod
    def from_dict(cls, payload) -> "CampaignSpec":
        """Validate a wire/spool dict into a spec (:class:`SpecError`
        on unknown keys, wrong types, or inconsistent knobs)."""
        if not isinstance(payload, dict):
            raise SpecError(f"spec must be a JSON object, "
                            f"got {type(payload).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise SpecError(
                f"unknown spec field(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})")
        try:
            return cls(**payload)
        except TypeError as exc:
            raise SpecError(str(exc)) from None

    def to_dict(self) -> dict:
        """The full spec, execution hints included (wire/spool form)."""
        out = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if value != spec_field.default:
                out[spec_field.name] = value
        out["technique"] = self.technique
        return out

    def identity_dict(self) -> dict:
        """The result-determining axes only: no ``jobs``, no adaptive
        knobs for fixed campaigns, no ``trials`` for adaptive ones."""
        identity = {
            "spec_version": SPEC_VERSION,
            "workload": self.workload_dict(),
            "technique": self.technique,
            "fault_model": self.fault_model,
            "seed": self.seed,
        }
        if self.adaptive:
            identity.update(adaptive=True, metric=self.metric,
                            ci_width=self.ci_width,
                            confidence=self.confidence,
                            max_trials=self.max_trials)
        else:
            identity["trials"] = self.trials
        return identity

    def spec_key(self) -> str:
        """Content hash of the identity axes (the dedup key)."""
        from ..obs.registry import canonical_json

        return hashlib.sha256(
            canonical_json(self.identity_dict()).encode("utf-8")
        ).hexdigest()[:16]

    def workload_dict(self) -> dict:
        """The manifest/telemetry workload axis, matching what the
        direct CLI paths store: ``{"benchmark": name}`` for suite
        workloads (fig8), ``{"source": path}`` for files (campaign),
        and a content-hashed label for inline text."""
        if self.workload:
            return {"benchmark": self.workload}
        if self.source:
            return {"source": self.source}
        digest = hashlib.sha256(
            self.source_text.encode("utf-8")).hexdigest()[:16]
        return {"source": f"text:{digest}"}

    def log_context(self) -> dict:
        """Per-trial telemetry context, byte-compatible with the
        direct CLI and Figure-8 campaign logs."""
        return dict(self.workload_dict(), technique=self.technique,
                    seed=self.seed)

    @property
    def technique_enum(self):
        from ..transform import Technique

        return Technique(self.technique)

    def describe(self) -> str:
        """One human line for queue listings and server logs."""
        name = (self.workload or self.source
                or self.workload_dict()["source"])
        budget = (f"adaptive {self.metric} "
                  f"hw<={100 * self.ci_width:.2f}pts"
                  if self.adaptive else f"{self.trials} trials")
        return f"{name} t={self.technique} seed={self.seed} {budget}"


# ------------------------------------------------------------------ prepare
def prepare_spec(spec: CampaignSpec):
    """Build the spec's protected binary: ``(program, machine)``.

    Suite workloads come back with their cached
    :func:`~repro.eval.pipeline.prepare_machine` simulator so the run
    matches the Figure-8 harness instruction for instruction; source
    specs return ``machine=None`` and run exactly like the ``campaign``
    CLI (which compiles per invocation).
    """
    if spec.workload:
        from ..eval.pipeline import prepare_machine

        machine = prepare_machine(spec.workload, spec.technique_enum)
        return machine.program, machine
    from ..lang import compile_source
    from ..transform import allocate_program, protect

    if spec.source:
        try:
            with open(spec.source) as handle:
                text = handle.read()
        except OSError as exc:
            detail = getattr(exc, "strerror", None) or exc
            raise SpecError(
                f"cannot read source {spec.source!r}: {detail}") from None
    else:
        text = spec.source_text
    try:
        program = compile_source(text)
        binary = allocate_program(protect(program, spec.technique_enum))
    except SpecError:
        raise
    except Exception as exc:
        raise SpecError(f"cannot compile spec program: {exc}") from exc
    return binary, None


# ---------------------------------------------------------------- run_spec
@dataclass
class SpecRun:
    """What :func:`run_spec` hands back: the aggregate result plus the
    adaptive details when the spec asked for them."""

    spec: CampaignSpec
    result: object                      # CampaignResult
    adaptive: object | None = None      # AdaptiveResult | None
    log: object | None = field(default=None, repr=False)

    @property
    def weights(self) -> dict | None:
        """Population stratum weights for atlas/ledger storage."""
        if self.adaptive is None:
            return None
        return {r["stratum"]: r["weight"]
                for r in self.adaptive.stratum_dicts()}


def run_spec(spec: CampaignSpec, program=None, *, machine=None,
             log=None, monitor=None, taint: bool = False, profile=None,
             atlas=None, jit: bool | None = None) -> SpecRun:
    """Execute one spec -- the single path every consumer shares.

    Fixed specs go through :func:`~repro.faults.campaign.run_campaign`
    (sharded for ``jobs > 1``); adaptive specs go through
    :func:`~repro.stats.sequential.run_adaptive_campaign`.
    ``program``/``machine`` may be passed to reuse a prepared binary;
    omitted, they are built with :func:`prepare_spec`.  The
    instrumentation hooks (``log``, ``monitor``, ``taint``,
    ``profile``, ``atlas``, ``jit``) thread straight through and never
    change outcomes.
    """
    if program is None:
        program, machine = prepare_spec(spec)
    if spec.adaptive:
        if taint:
            raise SpecError("taint tracing is not supported with "
                            "adaptive campaigns")
        if profile is not None:
            raise SpecError("profiling is not supported with adaptive "
                            "campaigns (batch sizes depend on observed "
                            "variance)")
        if atlas is not None:
            raise SpecError("adaptive atlases anchor post-hoc from the "
                            "campaign log, not an accumulator")
        from ..stats import AdaptiveConfig, run_adaptive_campaign

        config = AdaptiveConfig(ci_width=spec.ci_width,
                                confidence=spec.confidence,
                                metric=spec.metric,
                                max_trials=spec.max_trials)
        adaptive = run_adaptive_campaign(
            program, config=config, seed=spec.seed, jobs=spec.jobs,
            machine=machine, log=log,
            max_instructions=_DEFAULT_MAX_INSTRUCTIONS,
            monitor=monitor, jit=jit)
        return SpecRun(spec=spec, result=adaptive.result,
                       adaptive=adaptive, log=log)
    from ..faults import run_campaign

    result = run_campaign(
        program, trials=spec.trials, seed=spec.seed, jobs=spec.jobs,
        max_instructions=_DEFAULT_MAX_INSTRUCTIONS, machine=machine,
        log=log, taint=taint, profile=profile, monitor=monitor,
        jit=jit, atlas=atlas)
    return SpecRun(spec=spec, result=result, log=log)


# ------------------------------------------------------------------ ledger
def store_spec_run(registry, spec: CampaignSpec, run: SpecRun, program,
                   log=None, tag: str = ""):
    """Ledger one finished spec run (the ``--store`` path)."""
    from ..obs.registry import store_campaign

    return store_campaign(
        registry, workload=spec.workload_dict(),
        technique=spec.technique, seed=spec.seed, result=run.result,
        log=log if log is not None else run.log, program=program,
        weights=run.weights, adaptive=run.adaptive, tag=tag)


def expected_config(spec: CampaignSpec) -> dict:
    """Predict the manifest ``config`` fingerprint a stored run of
    this spec will carry, without running it.

    Mirrors what the runners capture at run time
    (``CampaignResult.config``) plus what
    :func:`~repro.obs.registry.store_campaign` adds -- the cache-probe
    round-trip test in ``tests/test_serve.py`` pins this agreement.
    """
    config: dict = {"fault_model": spec.fault_model, "seed": spec.seed}
    if spec.adaptive:
        from ..stats import AdaptiveConfig

        knobs = AdaptiveConfig(ci_width=spec.ci_width,
                               confidence=spec.confidence,
                               metric=spec.metric,
                               max_trials=spec.max_trials)
        config.update({
            "adaptive": True,
            "metric": knobs.metric,
            "ci_width": knobs.ci_width,
            "confidence": knobs.confidence,
            "batch_size": knobs.batch_size,
            "seed_trials": knobs.seed_trials,
            "max_trials": knobs.max_trials,
            "profile_samples": knobs.profile_samples,
            "phases": knobs.phases,
        })
    else:
        config.update({
            "trials": spec.trials,
            "checkpoint_interval": None,
            "presampled_sites": False,
        })
    return config


def expected_identity(spec: CampaignSpec, program) -> dict:
    """The four manifest identity axes a stored run of ``spec`` will
    carry: workload, technique, config, code sha256."""
    from ..obs.registry import program_sha256

    workload = spec.workload_dict()
    return {
        "workload": {key: workload[key] for key in sorted(workload)},
        "technique": spec.technique,
        "config": expected_config(spec),
        "code_sha256": program_sha256(program),
    }


def find_cached(registry, spec: CampaignSpec, program=None) -> str | None:
    """The stored run id whose manifest identity matches ``spec``, or
    ``None``.

    Run ids are content-addressed over *results*, so they cannot be
    predicted from a spec; instead every present manifest that survives
    a cheap ledger-entry prefilter (workload label, technique, seed) is
    loaded and compared on the full identity axes.  Any producer's runs
    count -- a direct ``campaign --store`` seeds the cache for the
    service and vice versa.
    """
    from ..obs.registry import RegistryError, _workload_label

    if program is None:
        program, _machine = prepare_spec(spec)
    expected = expected_identity(spec, program)
    label = _workload_label({"workload": expected["workload"]})
    for entry in registry.entries():
        if not entry.get("present"):
            continue
        if entry.get("workload", label) != label:
            continue
        if entry.get("technique", spec.technique) != spec.technique:
            continue
        if entry.get("seed", spec.seed) != spec.seed:
            continue
        try:
            manifest = registry.manifest(entry["run"])
        except RegistryError:
            continue
        if all(manifest.get(axis) == expected[axis]
               for axis in expected):
            return entry["run"]
    return None


def spec_json(spec: CampaignSpec) -> str:
    """Canonical single-line JSON of the wire form (spool/log use)."""
    return json.dumps(spec.to_dict(), sort_keys=True,
                      separators=(",", ":"))
