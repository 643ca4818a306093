"""Selectable kernel backend registry for the batch engine.

The batch layers call every hot kernel through the thin dispatchers in
:mod:`repro.sim.batch.kernels`; those dispatchers consult the *active
backend* resolved here.  A backend is a named bundle of kernel
implementations sharing the exact signatures (and the bit-identical
output contract) of the reference NumPy kernels:

* ``numpy`` — the default: pure-NumPy receiver-bucketed kernels
  (radix grouping, padded per-bucket ranking).  Always available.
* ``numba`` — optional compiled variants of the bucketed dedup/truncate
  and row-distance kernels (:mod:`repro.sim.batch._numba`).  Lazily
  imported; when numba is not installed the resolution *silently* falls
  back to ``numpy`` — an optional accelerator must never change whether
  a scenario runs, and the equivalence suites guarantee it cannot
  change what the scenario computes.

Selection precedence: an explicit :func:`set_active` call (the
``ScenarioConfig.kernel_backend`` plumbing) > the
``REPRO_KERNEL_BACKEND`` environment variable > ``numpy``.  The choice
is process-global — kernels are free functions on the hot path and a
per-call lookup is all the indirection they can afford — and it is a
pure execution knob: golden digests are byte-identical across backends,
so results, config hashes and checkpoints never depend on it.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional

#: Environment variable naming the preferred backend.
ENV_VAR = "REPRO_KERNEL_BACKEND"

#: Names accepted by :func:`get_backend` / ``ScenarioConfig.kernel_backend``.
KNOWN_BACKENDS = ("numpy", "numba")


class KernelBackend:
    """A named bundle of kernel implementations.

    Unset attributes fall back to the reference NumPy implementation,
    so a backend only overrides the kernels it actually accelerates.
    """

    def __init__(self, name: str, **impls: Callable) -> None:
        self.name = name
        for key, fn in impls.items():
            setattr(self, key, fn)

    def __getattr__(self, key: str):
        # Fallback for kernels this backend does not override.  The
        # numpy backend defines every kernel, so this cannot recurse.
        if self.name == "numpy":
            raise AttributeError(key)
        return getattr(get_backend("numpy"), key)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KernelBackend({self.name!r})"


_instances: Dict[str, KernelBackend] = {}
_active: Optional[KernelBackend] = None


def _build_numpy() -> KernelBackend:
    from . import kernels

    return KernelBackend(
        "numpy",
        dedup_priority_truncate=kernels.dedup_priority_truncate_numpy,
        merge_rank_truncate=kernels.merge_rank_truncate_numpy,
        row_rank_sq=kernels.row_rank_sq_numpy,
    )


def _build_numba() -> Optional[KernelBackend]:
    from . import _numba

    if not _numba.HAVE_NUMBA:
        return None
    return _numba.build_backend()


_FACTORIES = {"numpy": _build_numpy, "numba": _build_numba}


def available_backends() -> tuple:
    """Names that would resolve to themselves right now."""
    out = []
    for name in KNOWN_BACKENDS:
        if get_backend(name).name == name:
            out.append(name)
    return tuple(out)


def get_backend(name: Optional[str] = None) -> KernelBackend:
    """The backend for ``name`` (default: the environment's choice),
    falling back to ``numpy`` when the request cannot be satisfied."""
    if name is None:
        name = os.environ.get(ENV_VAR) or "numpy"
    if name not in _FACTORIES:
        name = "numpy"
    backend = _instances.get(name)
    if backend is None:
        backend = _FACTORIES[name]()
        if backend is None:  # optional dependency missing -> numpy
            backend = get_backend("numpy")
        _instances[name] = backend
    return backend


def active_backend() -> KernelBackend:
    """The backend the kernel dispatchers use (resolved lazily once;
    :func:`set_active` re-resolves)."""
    global _active
    if _active is None:
        _active = get_backend()
    return _active


def set_active(name: Optional[str]) -> KernelBackend:
    """Select the process-wide backend (``None`` re-reads the
    environment).  Returns the backend actually activated — requesting
    an unavailable backend activates ``numpy``."""
    global _active
    _active = get_backend(name)
    return _active


class use_backend:
    """Context manager scoping a backend choice (tests and benchmarks):

    >>> with use_backend("numba"):
    ...     run_cell()
    """

    def __init__(self, name: Optional[str]) -> None:
        self.name = name

    def __enter__(self) -> KernelBackend:
        global _active
        self._prev = _active
        return set_active(self.name)

    def __exit__(self, *exc) -> None:
        global _active
        _active = self._prev
