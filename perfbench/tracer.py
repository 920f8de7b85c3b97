"""In-memory span recorder that wraps the system's public calls.

The traced run attributes wall time to layers without editing the
program: :meth:`Tracer.patch` replaces a public function or method with a
wrapper that records one span per call (name, start, end, parent span,
thread, phase) and, optionally, a work count taken from the call's
arguments or result.  Spans nest per thread, so a layer's *self time* is
its span's duration minus the durations of the spans it directly caused.

Wrappers go on class attributes (so every instance and every importer of
the class sees them) and on the module-level names a consumer imported
(``campaign.driver.content_key``, ``serve.http.render_exposition``),
because ``from x import f`` binds a second name that patching ``x.f``
would not reach.  Everything is undone by :meth:`Tracer.restore`.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Span:
    """One recorded call of a wrapped function."""

    index: int
    parent: int | None
    name: str
    phase: str
    thread: int
    start: float
    end: float
    self_s: float

    def to_dict(self) -> dict:
        """JSON-able form, for the span dump written at the end of a run."""
        return {
            "i": self.index,
            "parent": self.parent,
            "name": self.name,
            "phase": self.phase,
            "thread": self.thread,
            "start": self.start,
            "end": self.end,
            "self_s": self.self_s,
        }


class _Frame:
    __slots__ = ("index", "child_s")

    def __init__(self, index: int):
        self.index = index
        self.child_s = 0.0


#: ``count(args, kwargs, result) -> {counter: amount}`` for a wrapped call.
Counter = Callable[[tuple, dict, Any], dict]

#: ``on_exit(args, kwargs, seconds)``: per-call hook after the span closes.
ExitHook = Callable[[tuple, dict, float], None]


class Tracer:
    """Records spans and counts of wrapped calls, per phase, in memory.

    ``phase`` labels every span opened while it is set ("setup", "run",
    ...), so one process can trace its set-up and its timed phase and
    report them apart.  Spans of concurrent threads (the threaded HTTP
    server) nest on per-thread stacks.
    """

    def __init__(self) -> None:
        self.phase = "setup"
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(
        self,
        name: str,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        count: Counter | None = None,
        on_exit: ExitHook | None = None,
    ) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            # Reserve the slot so indices follow call order across threads.
            self.spans.append(None)  # type: ignore[arg-type]
        parent = stack[-1].index if stack else None
        frame = _Frame(index)
        phase = self.phase
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1].child_s += duration
            self.spans[index] = Span(
                index, parent, name, phase, threading.get_ident(),
                start, end, duration - frame.child_s,
            )
        if count is not None:
            amounts = count(args, kwargs, result)
            with self._lock:
                for counter, amount in amounts.items():
                    key = (phase, counter)
                    self.counts[key] = self.counts.get(key, 0) + int(amount)
        if on_exit is not None:
            on_exit(args, kwargs, duration)
        return result

    # -- installation ------------------------------------------------------
    def patch(
        self,
        owner: Any,
        attribute: str,
        name: str,
        count: Counter | None = None,
        on_exit: ExitHook | None = None,
    ) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``owner`` is a class or a module.  Class-level ``classmethod`` and
        ``staticmethod`` descriptors are unwrapped and re-wrapped so the
        binding behaviour is unchanged.
        """
        raw = (
            owner.__dict__[attribute]
            if isinstance(owner, type)
            else getattr(owner, attribute)
        )
        tracer = self
        if isinstance(raw, (classmethod, staticmethod)):
            inner = raw.__func__

            @functools.wraps(inner)
            def wrapped(*args, **kwargs):
                return tracer.call(name, inner, args, kwargs, count, on_exit)

            replacement: Any = type(raw)(wrapped)
        else:

            @functools.wraps(raw)
            def replacement(*args, **kwargs):
                return tracer.call(name, raw, args, kwargs, count, on_exit)

        setattr(owner, attribute, replacement)
        self._undo.append((owner, attribute, raw))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, attribute, raw = self._undo.pop()
            setattr(owner, attribute, raw)

    # -- reduction ---------------------------------------------------------
    def window(self, phase: str, lo: float, hi: float) -> list[Span]:
        """Spans of ``phase`` that started inside ``[lo, hi]``."""
        return [
            s for s in self.spans
            if s is not None and s.phase == phase and lo <= s.start <= hi
        ]

    def count(self, phase: str, counter: str) -> int:
        """Total of one counter over a phase."""
        return self.counts.get((phase, counter), 0)

    def dump(self, path) -> str:
        """Write every span as one JSON line; return the path written."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")
        return str(path)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Summed self time per span name."""
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.self_s
    return totals

