"""Package exports resolved on first use (PEP 562).

A package init that imported every submodule would make each process
pay for all of them: a fleet shard, which needs only its serving path,
would load the optimizer, every index design and the asyncio front
door.  :func:`attach` gives a package a module ``__getattr__`` that
imports a public name's module when the name is first read, so
``from repro.core import DomdEstimator`` still works and loads only
what that name needs.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def attach(
    package: str, exports: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps a module's dotted name to the public names it
    defines.  A resolved name is stored on the package, so each is
    looked up once.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
