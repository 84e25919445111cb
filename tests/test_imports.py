"""The package boundary: lazy re-exports and what an import loads.

``repro`` and its ``obs``, ``eval``, ``faults`` and ``stats`` packages
load a submodule only when one of its names is first used
(``repro._lazy``).  Checks that need a fresh interpreter run in a
subprocess, because this one has imported everything by now.
"""

import hashlib
import importlib
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

LAZY_PACKAGES = ("repro", "repro.obs", "repro.eval", "repro.faults",
                 "repro.stats")

#: Each package's ``__all__``: its length and the first 16 hex digits
#: of the SHA-256 of its names joined by spaces, in order.  Equal to
#: the eagerly importing packages these replaced.
ALL_PINS = {
    "repro": (18, "99ea02ac177c78a9"),
    "repro.obs": (53, "c9f80f1b38da1a9a"),
    "repro.eval": (16, "07b6ec273ec42e3f"),
    "repro.faults": (27, "34619805e3276813"),
    "repro.stats": (20, "2cf4cc64675f1554"),
}

#: The library path a campaign or timing run takes (the modules the
#: end-to-end benchmark's children import before they start work).
ENTRY_MODULES = ("repro.eval.pipeline", "repro.faults.campaign",
                 "repro.faults.injector", "repro.sim.jit",
                 "repro.sim.timing")

#: What that path never runs: the ledger, the shard pool, the telemetry
#: sinks, the obs readers, the adaptive engine and the figure harnesses,
#: and the standard-library modules only they use.
NOT_LOADED = ("hashlib", "multiprocessing", "socket", "pickle", "gzip",
              "argparse", "repro.obs.registry", "repro.obs.sink",
              "repro.obs.atlas", "repro.obs.forensics",
              "repro.obs.convergence", "repro.faults.parallel",
              "repro.eval.reliability", "repro.eval.performance")


def _fresh(code):
    """Run ``code`` in a new interpreter; return its stdout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_library_path_imports_only_what_it_runs():
    loaded = _fresh(
        "import importlib, sys\n"
        f"for name in {ENTRY_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "print(*sys.modules, sep='\\n')\n").split()
    assert [m for m in NOT_LOADED if m in loaded] == []
    assert sorted(m for m in loaded if m.startswith("repro.stats")) == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_public_names_resolve_to_their_definitions(package):
    pkg = importlib.import_module(package)
    names = pkg.__all__
    digest = hashlib.sha256(" ".join(names).encode()).hexdigest()[:16]
    assert (len(names), digest) == ALL_PINS[package], names
    assert set(pkg._EXPORTS) <= set(names)
    for name in pkg._EXPORTS:
        submodule = importlib.import_module(
            f"{package}.{pkg._EXPORTS[name]}")
        assert getattr(pkg, name) is getattr(submodule, name), name
    assert set(names) <= set(dir(pkg))
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(names) <= set(namespace)
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        pkg.nonesuch


def test_lazy_attributes_in_a_fresh_interpreter():
    """Subpackages and submodules resolve as attributes; a submodule
    import still works; ``repro.obs.registry`` stays the metrics
    accessor whether or not the ledger submodule was imported first;
    assigning a re-exported name (as ``monkeypatch`` does) sticks."""
    _fresh(
        "import sys\n"
        "import repro\n"
        "from repro.sim.machine import Machine\n"
        "assert repro.sim.Machine is repro.Machine is Machine\n"
        "from repro.faults import parallel\n"
        "assert parallel is sys.modules['repro.faults.parallel']\n"
        "import repro.obs\n"
        "accessor = repro.obs.registry\n"
        "import repro.obs.registry\n"
        "from repro.obs.metrics import registry\n"
        "assert accessor is repro.obs.registry is registry\n"
        "assert callable(registry)\n"
        "repro.obs.span = None\n"
        "assert repro.obs.span is None\n")
    _fresh(
        "import repro.obs.registry as ledger\n"
        "from repro.obs import RunRegistry, registry\n"
        "from repro.obs.metrics import registry as accessor\n"
        "assert ledger is registry is accessor\n"
        "assert RunRegistry.__module__ == 'repro.obs.registry'\n")


@pytest.mark.parametrize("module, command", [
    ("repro.eval.reliability", "fig8"),
    ("repro.eval.performance", "fig9"),
])
def test_figure_modules_point_at_the_cli(module, command):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", module, "--benchmarks",
                           "crc32"], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("repro: error: ")
    assert f"python -m repro {command}" in lines[0]
    assert "RuntimeWarning" not in proc.stderr
