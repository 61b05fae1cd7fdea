"""Lazy package exports: a submodule loads when one of its names is used.

A package ``__init__`` declares its public names as one ``{submodule:
names}`` table and hands it to :func:`lazy_exports`, which installs a
PEP 562 module ``__getattr__`` and ``__dir__`` and returns ``__all__``::

    __all__ = lazy_exports(__name__, {
        "spec": ("RegionSpec", "ScenarioSpec"),
        "sweep": ("expand", "run_sweep", "sweep"),
    })

``from package import Name``, ``package.Name``, ``import *`` and
``dir()`` behave as with eager imports, but importing the package runs
none of its submodules: each loads on the first lookup of one of its
names, so a run pays only for the layers it uses.  Submodule keys may be
dotted (``"core.service"``) to export from a nested package.

A submodule that shares its name with one of its exports never shadows
that export, whatever the import order:

>>> import repro.scenarios.sweep
>>> from repro.scenarios import sweep
>>> sweep.__module__, callable(sweep)
('repro.scenarios.sweep', True)
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType

__all__ = ["lazy_exports"]


class _LazyPackage(ModuleType):
    """A package whose exports outrank its same-named submodules."""

    def __setattr__(self, name: str, value) -> None:
        # The import system binds each submodule onto its package once the
        # submodule has run; for ``repro.scenarios.sweep`` that would hide
        # the ``sweep`` function the package exports.
        if isinstance(value, ModuleType) and name in self.__dict__.get(
            "__all__", ()
        ):
            value = self.__getattr__(name)
        super().__setattr__(name, value)


def lazy_exports(package: str, table: dict[str, tuple[str, ...]]) -> list[str]:
    """Make ``package`` export ``table``'s names lazily; return ``__all__``.

    ``table`` maps a submodule path relative to ``package`` to the names
    it defines.  The first lookup of a name imports its submodule and
    binds the name on the package, so later lookups are plain attribute
    reads; an unknown name raises ``AttributeError`` as usual.
    """
    module = sys.modules[package]
    owner = {name: sub for sub, names in table.items() for name in names}

    def __getattr__(name: str):
        try:
            sub = owner[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(f"{package}.{sub}"), name)
        module.__dict__[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(module.__dict__.keys() | owner.keys())

    module.__dict__.update(__getattr__=__getattr__, __dir__=__dir__)
    module.__class__ = _LazyPackage
    return list(owner)
