"""Lazy package exports (PEP 562).

A package's ``__init__`` imports what every user of the package runs and
names its optional parts in a table; :func:`lazy_exports` builds the
module-level ``__getattr__`` and ``__dir__`` that import such a part on
first access and store it in the package's globals.  A later access is
then a plain global lookup, and ``from package import name`` works as it
did when the name was imported eagerly.
"""

from __future__ import annotations

import importlib
from typing import Callable, List, Mapping, MutableMapping, Tuple


def lazy_exports(
    namespace: MutableMapping[str, object], exports: Mapping[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for the package whose globals are
    ``namespace`` (a plain module's globals work too).

    ``exports`` maps each optional name to the module that defines it,
    relative to the module's package (``".batch"``).  A name equal to
    its module's last component (``"fabric": ".fabric"``) is that
    module.
    """
    module_name = namespace["__name__"]
    package = namespace["__package__"]

    def __getattr__(name: str) -> object:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {module_name!r} has no attribute {name!r}"
            ) from None
        value = importlib.import_module(module, package)
        if module.rpartition(".")[2] != name:
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__
