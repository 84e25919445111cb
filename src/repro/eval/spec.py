"""Campaign specs: one declarative description, one execution path.

A :class:`CampaignSpec` is everything that determines a campaign's
*results*: the workload (a suite benchmark or a mini-C source file),
the technique, the seed, and either a fixed trial budget or the
adaptive stopping knobs.  ``jobs`` rides along as an execution hint
but never enters a stored run's identity -- campaigns are
bit-identical for any jobs value.

:func:`run_spec` is the single spec-to-run path: the ``campaign`` CLI
and the Figure-8 harness both call it.  That makes the ledger probe
sound: :func:`expected_identity` predicts the exact identity axes
(workload, technique, config, code sha256) that
:func:`repro.obs.registry.store_campaign` will write, and
:func:`find_cached` scans the ledger for a stored manifest carrying
them.  A hit means the requested campaign already ran, so
``campaign --store`` answers it without executing a single trial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SpecError


@dataclass(frozen=True)
class CampaignSpec:
    """One campaign, declaratively.

    Exactly one of ``workload`` (suite benchmark name) or ``source``
    (mini-C file path) names the program.  ``adaptive=False`` runs a
    fixed ``trials`` budget; ``adaptive=True`` runs the sequential
    engine with the stopping knobs and ignores ``trials``.
    """

    technique: str = "swiftr"
    workload: str = ""
    source: str = ""
    seed: int = 0
    trials: int = 250
    adaptive: bool = False
    metric: str = "unace"
    ci_width: float = 0.025
    confidence: float = 0.95
    max_trials: int = 4000
    #: Worker processes *within* the campaign; results are identical
    #: for any value, so it never enters a manifest.
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
        if bool(self.workload) == bool(self.source):
            raise SpecError(
                "a spec names exactly one program: a suite 'workload' "
                "or a 'source' file path")
        if self.workload:
            from ..workloads import WORKLOADS

            if self.workload not in WORKLOADS:
                raise SpecError(
                    f"unknown workload {self.workload!r} "
                    "(see `python -m repro workloads`)")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise SpecError(f"seed must be an integer, got {self.seed!r}")
        if not isinstance(self.trials, int) or self.trials < 1:
            raise SpecError(f"trials must be a positive integer, "
                            f"got {self.trials!r}")
        if not isinstance(self.jobs, int) or self.jobs < 0:
            raise SpecError(f"jobs must be a non-negative integer, "
                            f"got {self.jobs!r}")
        try:
            self.adaptive_config()
        except ValueError as exc:
            raise SpecError(str(exc)) from None

    def adaptive_config(self):
        """The :class:`~repro.stats.AdaptiveConfig` of the stopping
        knobs (validated even for fixed specs)."""
        from ..stats import AdaptiveConfig

        return AdaptiveConfig(ci_width=self.ci_width,
                              confidence=self.confidence,
                              metric=self.metric,
                              max_trials=self.max_trials)

    def workload_dict(self) -> dict:
        """The manifest/telemetry workload axis, matching what the
        direct CLI paths store: ``{"benchmark": name}`` for suite
        workloads (fig8) and ``{"source": path}`` for files
        (campaign)."""
        if self.workload:
            return {"benchmark": self.workload}
        return {"source": self.source}


# ---------------------------------------------------------------- run_spec
@dataclass
class SpecRun:
    """What :func:`run_spec` hands back: the aggregate result plus the
    adaptive details when the spec asked for them."""

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


def run_spec(spec: CampaignSpec, program, *, machine=None, log=None,
             taint: bool = False, profile=None,
             atlas=None, jit: bool | None = None) -> SpecRun:
    """Execute one spec against its protected ``program`` -- the
    single path every consumer shares.

    Fixed specs go through :func:`~repro.faults.campaign.run_campaign`
    (sharded for ``jobs > 1``); adaptive specs go through
    :func:`~repro.stats.sequential.run_adaptive_campaign`.  ``machine``
    may be passed to reuse a prepared simulator.  The instrumentation
    hooks (``log``, ``taint``, ``profile``, ``atlas``, ``jit``) thread
    straight through and never change outcomes.
    """
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
        from ..stats import run_adaptive_campaign

        adaptive = run_adaptive_campaign(
            program, config=spec.adaptive_config(), seed=spec.seed,
            jobs=spec.jobs, machine=machine, log=log, jit=jit)
        return SpecRun(result=adaptive.result, adaptive=adaptive, log=log)
    from ..faults import run_campaign

    result = run_campaign(
        program, trials=spec.trials, seed=spec.seed, jobs=spec.jobs,
        machine=machine, log=log, taint=taint, profile=profile,
        jit=jit, atlas=atlas)
    return SpecRun(result=result, log=log)


# ------------------------------------------------------------------ ledger
def store_spec_run(registry, spec: CampaignSpec, run: SpecRun, program,
                   tag: str = ""):
    """Ledger one finished spec run (the ``--store`` path); ``run``
    must have been given a ``log``."""
    from ..obs.registry import store_campaign

    return store_campaign(
        registry, workload=spec.workload_dict(),
        technique=spec.technique, seed=spec.seed, result=run.result,
        log=run.log, program=program,
        weights=run.weights, adaptive=run.adaptive, tag=tag)


def expected_config(spec: CampaignSpec) -> dict:
    """Predict the manifest ``config`` fingerprint a stored run of
    this spec will carry, without running it.

    Mirrors what the runners capture at run time
    (``CampaignResult.config``) plus what
    :func:`~repro.obs.registry.store_campaign` adds -- the cache-probe
    round-trip tests in ``tests/test_spec.py`` pin this agreement.
    """
    from ..faults.injector import HANG_FACTOR, HANG_FLOOR
    from ..faults.model import FaultSite

    config: dict = {"fault_model": FaultSite.fault_model,
                    "seed": spec.seed}
    if spec.adaptive:
        config.update(spec.adaptive_config().config_dict())
    else:
        config.update({
            "trials": spec.trials,
            "checkpoint_interval": None,
            "presampled_sites": False,
            "hang_factor": HANG_FACTOR,
            "hang_floor": HANG_FLOOR,
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


def find_cached(registry, spec: CampaignSpec, program) -> str | None:
    """The stored run id whose manifest identity matches ``spec`` run
    against ``program``, or ``None``.

    Run ids are content-addressed over *results*, so they cannot be
    predicted from a spec; instead every present manifest that survives
    a cheap ledger-entry prefilter (workload label, technique, seed) is
    loaded and compared on the full identity axes.  Any producer's runs
    count, whatever ``--jobs`` they ran with.
    """
    from ..obs.registry import RegistryError, _workload_label

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
