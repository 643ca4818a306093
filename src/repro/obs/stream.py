"""The one JSONL stream layer: how records reach disk and come back.

The four obs streams (``events``, ``metrics``, ``spans``, ``series``) and
the result store with its cluster shards are append-only JSONL files;
this module is the only place that decides how they are written, read
and found:

* **Append atomicity** — :func:`append` writes a batch of lines as one
  ``write()`` on an ``O_APPEND`` descriptor: concurrent writers
  interleave whole lines and a crash tears at most the final one.
* **Fork guard** — a :class:`BufferedStream` belongs to the process that
  filled it; a forked child drops the inherited unflushed lines (the
  parent writes them itself), so no record appears twice.
* **Torn-tail rule** — :func:`read` skips blank, unparseable and
  non-object lines.  ``strict=True`` is the result store's rule: only a
  *trailing* bad line can be a torn append (skipped with a warning);
  one with records after it raises :class:`~repro.errors.StoreError`.
* **Failure policy** — obs streams never raise out of a sink failure
  (:func:`try_append` returns 0); result-store appends always do
  (:func:`append` — durability).
* **Where files live** — ``<run>/obs/<name>``: :func:`sink` names it for
  writers, :func:`resolve` finds it for readers.

Whole files that are *replaced* rather than appended to (queue task and
worker files, checkpoints, ``mem.json``) share :func:`atomic_write`.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import warnings
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from ..errors import StoreError

PathLike = Union[str, Path]
_APPEND_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_APPEND


def encode(record: Dict[str, Any], default: Optional[Callable] = None) -> str:
    """One record as its canonical line: sorted keys, compact."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"), default=default)


def append(path: PathLike, lines: List[str]) -> int:
    """Append ``lines`` in one ``write()`` (parent directory created on
    first use); returns the line count, raises ``OSError``."""
    data = ("\n".join(lines) + "\n").encode("utf8")
    try:
        fd = os.open(path, _APPEND_FLAGS, 0o644)
    except FileNotFoundError:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, _APPEND_FLAGS, 0o644)
    try:
        os.write(fd, data)
    finally:
        os.close(fd)
    return len(lines)


def atomic_write(path: PathLike, data: bytes) -> None:
    """Write-then-rename, so readers never see a partial file.  The temp
    name carries host *and* pid: machines sharing the directory
    (containers especially) routinely share low pids."""
    path = Path(path)
    tmp = path.with_name(
        f"{path.name}.{os.uname().nodename}-{os.getpid()}.tmp"
    )
    tmp.write_bytes(data)
    os.replace(tmp, path)


def try_append(path: PathLike, lines: List[str]) -> int:
    """:func:`append` for obs streams: a sink failure must not kill the
    run it observes, so ``OSError`` becomes 0 lines written."""
    try:
        return append(path, lines)
    except OSError:
        return 0


class BufferedStream:
    """A per-process line buffer in front of one obs stream file,
    flushed every :attr:`CAP` records, on demand, and at exit."""

    CAP = 128

    def __init__(self) -> None:
        self.path: Optional[Path] = None
        self._lines: List[str] = []
        self._pid = os.getpid()
        self._lock = threading.Lock()
        atexit.register(self.flush)

    def set_path(self, path: Optional[PathLike]) -> None:
        self.path = Path(path) if path is not None else None

    def _own(self) -> List[str]:
        """The buffer — emptied first in a forked child, whose inherited
        lines the parent writes itself."""
        if os.getpid() != self._pid:
            self._lines, self._pid = [], os.getpid()
        return self._lines

    def add(self, record: Dict[str, Any]) -> None:
        line = encode(record, default=repr)
        with self._lock:
            lines = self._own()
            lines.append(line)
            full = len(lines) >= self.CAP
        if full:
            self.flush()

    def flush(self) -> int:
        """Write every buffered line; returns how many reached disk
        (none, and none dropped, while no path is set)."""
        with self._lock:
            lines = self._own()
            if not lines or self.path is None:
                return 0
            self._lines = []
        return try_append(self.path, lines)

    def clear(self) -> None:
        with self._lock:
            self._lines = []


def parse(line: Union[str, bytes]) -> Tuple[Optional[Dict[str, Any]], Optional[ValueError]]:
    """``(record, None)`` for a line holding one JSON object, else
    ``(None, error)`` — torn, undecodable and non-object lines alike."""
    try:
        record = json.loads(line)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        return None, exc
    if not isinstance(record, dict):
        return None, ValueError(f"not a JSON object: {type(record).__name__}")
    return record, None


def scan(path: PathLike) -> Iterator[Tuple[int, Optional[Dict[str, Any]], Optional[ValueError]]]:
    """Every non-blank line of ``path`` as ``(lineno, record, error)``."""
    with open(path, "rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.strip():
                yield (lineno, *parse(line))


def read(path: PathLike, strict: bool = False) -> Iterator[Dict[str, Any]]:
    """Stream the records of ``path`` under the torn-tail rule."""
    bad: Optional[Tuple[int, ValueError]] = None
    for lineno, record, error in scan(path):
        if strict and bad is not None:
            raise StoreError(f"corrupt record at {path}:{bad[0]}: {bad[1]}") from bad[1]
        if record is None:
            bad = (lineno, error)
        else:
            yield record
    if strict and bad is not None:
        from . import log  # imported late: log itself appends through this module

        warnings.warn(
            f"skipping torn trailing record at {path}:{bad[0]} (interrupted write?)",
            stacklevel=3,
        )
        log.warning("store.torn_record", path=str(path), line=bad[0], error=str(bad[1]))


def sink(run_dir: Optional[PathLike], name: str) -> Optional[Path]:
    """Where a run keeps stream ``name`` (None without a run dir)."""
    return Path(run_dir) / "obs" / name if run_dir is not None else None


def resolve(target: PathLike, name: str, what: Optional[str] = None) -> Optional[Path]:
    """Find stream ``name`` for ``target``: the file itself, a run dir
    holding ``obs/<name>``, or a dir holding ``<name>``.  Absent is
    None — or ``FileNotFoundError`` naming ``what`` when that is given."""
    target = Path(target)
    for candidate in (target, sink(target, name), target / name):
        if candidate.is_file():
            return candidate
    if what is None:
        return None
    raise FileNotFoundError(
        f"no {what} found under {target} (expected obs/{name}, {name}, or a file path)"
    )
