"""In-memory span tracing from outside the program.

The traced run measures every layer without touching ``src/``: a
:class:`Tracer` replaces public functions and methods of the layers
with timing shims (:meth:`Tracer.shim`), keeps every span in memory
(name, start, end, parent, args) and writes them once, when the child
exits, as a Chrome trace.  The untraced repeats never import this
module, so end-to-end numbers carry no tracing cost.
"""

from __future__ import annotations

import functools
import inspect
import json
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

#: Span fields, by list index (lists, not objects: the shims sit on
#: kernel-call paths and must stay cheap).
NAME, START, END, PARENT, ARGS = range(5)


class Tracer:
    """Spans of one traced child, in start order."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._by_name: Dict[str, List[list]] = {}
        self._grouped_at = 0
        #: Shims pass straight through while this is false (the child
        #: switches it off for its own untimed bookkeeping, e.g. the
        #: final ``state_digest``).
        self.active = True

    def begin(self, name: str, args: Optional[Dict[str, Any]] = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, args or {}])
        sid = len(self.spans) - 1
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][END] = perf_counter()
        # A generator shim can end late (closed by its consumer); pop
        # down to it so the stack stays a chain of open spans.
        while self._stack and self._stack.pop() != sid:
            pass

    def shim(
        self,
        owner: Any,
        attr: str,
        name: str,
        args: Optional[Callable[..., Dict[str, Any]]] = None,
        result_args: Optional[Callable[[Any], Dict[str, Any]]] = None,
    ) -> None:
        """Replace ``owner.attr`` (a module function or a class method)
        with a shim recording one span named ``name`` per call.
        ``args`` maps the call's arguments, ``result_args`` its return
        value, to span args."""
        orig = getattr(owner, attr)
        tracer = self

        if inspect.isgeneratorfunction(orig):

            @functools.wraps(orig)
            def wrapper(*a, **k):
                if not tracer.active:
                    yield from orig(*a, **k)
                    return
                sid = tracer.begin(name, args(*a, **k) if args else None)
                try:
                    yield from orig(*a, **k)
                finally:
                    tracer.end(sid)

        else:

            @functools.wraps(orig)
            def wrapper(*a, **k):
                if not tracer.active:
                    return orig(*a, **k)
                sid = tracer.begin(name, args(*a, **k) if args else None)
                try:
                    result = orig(*a, **k)
                finally:
                    tracer.end(sid)
                if result_args is not None:
                    tracer.spans[sid][ARGS].update(result_args(result))
                return result

        setattr(owner, attr, wrapper)

    # -- reading -----------------------------------------------------------

    def named(self, name: str) -> List[list]:
        """Spans called ``name``, in start order (grouped once per
        length of the span list: reading happens after tracing)."""
        if self._grouped_at != len(self.spans):
            self._by_name = {}
            for span in self.spans:
                self._by_name.setdefault(span[NAME], []).append(span)
            self._grouped_at = len(self.spans)
        return self._by_name.get(name, [])

    def total(self, name: str) -> float:
        """Seconds inside spans called ``name`` (children included)."""
        return sum(span[END] - span[START] for span in self.named(name))

    def count(self, name: str) -> int:
        return len(self.named(name))

    def ancestor(self, span: list, name: str) -> Optional[list]:
        """The nearest enclosing span called ``name``, if any."""
        parent = span[PARENT]
        while parent >= 0:
            span = self.spans[parent]
            if span[NAME] == name:
                return span
            parent = span[PARENT]
        return None

    def self_times(self) -> Dict[str, float]:
        """Per span name: duration minus the part covered by direct
        children, summed over all spans of that name."""
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        out: Dict[str, float] = {}
        for span, seconds in zip(self.spans, own):
            out[span[NAME]] = out.get(span[NAME], 0.0) + seconds
        return out

    def write_chrome_trace(self, path: Path, other: Dict[str, Any]) -> None:
        """One complete event per span; ``id``/``parent`` in ``args``
        rebuild the tree, ``self_s`` per name rides in ``otherData``."""
        origin = self.spans[0][START] if self.spans else 0.0
        events = [
            {
                "name": span[NAME],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": round((span[START] - origin) * 1e6, 3),
                "dur": round((span[END] - span[START]) * 1e6, 3),
                "args": dict(span[ARGS], id=sid, parent=span[PARENT]),
            }
            for sid, span in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf8") as fh:
            json.dump(
                {
                    "traceEvents": events,
                    "displayTimeUnit": "ms",
                    "otherData": dict(other, self_s=self.self_times()),
                },
                fh,
            )
            fh.write("\n")
