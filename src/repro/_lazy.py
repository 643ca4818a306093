"""PEP 562 re-exports: a package ``__init__`` names what it offers and
imports nothing until a name is first read."""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, Iterable, List, Mapping, Tuple


def lazy_exports(
    namespace: Dict[str, Any], groups: Mapping[str, Iterable[str]]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` for the package whose
    ``globals()`` is ``namespace``.

    ``groups`` maps a relative submodule (``".scenario"``) to the public
    names read from it.  The first read of a name imports its submodule
    and caches the object in ``namespace``, so later reads, ``from
    package import Name`` included, cost a dict lookup.
    """
    package = namespace["__name__"]
    table = {name: module for module, names in groups.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = table.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    return list(table), __getattr__, __dir__
