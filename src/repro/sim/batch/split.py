"""Vectorised SPLIT for the batch engine: a re-export.

The padded kernel that splits every pool of a migration wave at once,
:func:`~repro.core.split.batch_split`, lives in :mod:`repro.core.split`
beside the event engine's per-exchange SPLITs, which are its one-pool
calls — one statement of Algorithms 4 and 5 for both engines.  It lives
outside this package because an event run must not import the batch
engine.

The batch protocol reaches the kernel through this module's attribute
(``split.batch_split``), so a wrapper installed here — as the benchmark
harness installs one to count and time the calls — sees every wave.
"""

from ...core.split import batch_split

__all__ = ["batch_split"]
