"""In-memory span recording around a program's public functions.

The benchmark does not instrument the program: it wraps the functions at
each layer boundary from the outside for one traced run, records a span
per call (name, start, end, parent span, optional work count) in memory,
writes the spans out when the process exits, and restores every
original.  A layer's *self time* is its span's duration minus the part of
that interval its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    #: Work the call carried (requests simulated, rows estimated, ...); 1
    #: for boundaries without a work count.
    n: int = 1

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects the spans of one traced run (one ``run_id``)."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Callable | None = None,
    ) -> Callable:
        """``fn`` recording a ``name`` span per call.

        A call made directly inside a span of the same name (a subclass
        chaining to its parent, ``predict`` delegating to
        ``predict_many``) is part of that span's work, not a second call
        across the boundary, so it records nothing.
        """
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else None
            stack.append((sid, name))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                n = count(*args, **kwargs) if count is not None else 1
                spans.append((sid, parent, name, start, end, n))

        return traced

    def dump(self, path) -> None:
        """Write the header line and one JSON array per span."""
        with open(path, "w") as f:
            f.write(json.dumps({"run_id": self.run_id, "clock": "perf_counter"}))
            f.write("\n")
            for s in self.spans:
                f.write(json.dumps(s))
                f.write("\n")


def load_spans(path) -> tuple[dict, list[Span]]:
    """Read a file :meth:`SpanRecorder.dump` wrote."""
    with open(path) as f:
        header = json.loads(f.readline())
        spans = [Span(*json.loads(line)) for line in f if line.strip()]
    return header, spans


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval and overlapping
    children (possible only if the program ran layers concurrently) are
    merged, so no instant is subtracted twice.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = s.duration - covered
    return out


def subtree(spans: list[Span], root_id: int) -> list[Span]:
    """``root_id``'s span and every span below it."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    by_id = {s.id: s for s in spans}
    out, todo = [], [root_id]
    while todo:
        sid = todo.pop()
        out.append(by_id[sid])
        todo.extend(c.id for c in children.get(sid, ()))
    return out


class Patcher:
    """Replaces attributes and puts every original back on :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_method(self, base: type, attr: str, make: Callable) -> int:
        """Wrap ``attr`` on ``base`` and on every subclass defining its own.

        Returns how many classes were patched.
        """
        patched = 0
        for cls in class_tree(base):
            if attr in cls.__dict__:
                self.set(cls, attr, make(cls.__dict__[attr]))
                patched += 1
        return patched

    def patch_function(self, fn: Callable, prefix: str, make: Callable) -> int:
        """Wrap every module-level binding of ``fn`` in modules under ``prefix``.

        Modules that import a function by name hold their own binding,
        so patching only the defining module would miss their calls.
        Returns how many bindings were patched.
        """
        wrapped = make(fn)
        patched = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == prefix or mod_name.startswith(prefix + ".")
            ):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.set(mod, attr, wrapped)
                    patched += 1
        return patched

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @property
    def active(self) -> int:
        return len(self._saved)


def class_tree(base: type) -> list[type]:
    seen, out, todo = set(), [], [base]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out
