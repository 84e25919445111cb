"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package whose ``__init__`` imports every submodule makes each
process that uses one of them load all of them, and everything they
import.  :func:`lazy_exports` instead loads a submodule the first time
one of its names is looked up on the package.
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType


def lazy_exports(package: str, exports: dict[str, str]) -> list[str]:
    """Re-export ``exports`` (public name -> submodule) from ``package``
    on first use, and return the names, in order, for its ``__all__``.

    A name resolves to the attribute of that name in
    ``package.<submodule>`` and is then cached on the package.  Any other
    name resolves to the submodule of that name, so ``repro.sim`` works
    after a bare ``import repro``.  Where a re-exported name is also a
    submodule's name (``repro.obs.registry``), the re-export wins:
    importing the submodule does not rebind it.
    """
    module = sys.modules[package]

    def __getattr__(name: str) -> object:
        submodule = exports.get(name)
        if submodule is None:
            return _submodule(package, name)
        value = getattr(importlib.import_module(f"{package}.{submodule}"),
                        name)
        setattr(module, name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(module), *exports})

    class LazyPackage(ModuleType):
        def __setattr__(self, name: str, value: object) -> None:
            # The import system binds every submodule it loads as an
            # attribute of its package.
            if name in exports and isinstance(value, ModuleType) and \
                    value.__name__ == f"{package}.{name}":
                return
            super().__setattr__(name, value)

    module.__getattr__ = __getattr__
    module.__dir__ = __dir__
    module.__class__ = LazyPackage
    return list(exports)


def _submodule(package: str, name: str) -> ModuleType:
    missing = AttributeError(
        f"module {package!r} has no attribute {name!r}")
    if name.startswith("__"):
        raise missing
    try:
        return importlib.import_module(f"{package}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{package}.{name}":
            raise
        raise missing from None
