"""In-memory spans around the public functions of the program's layers.

The benchmark's traced run installs :class:`Tracer` wrappers on the
binding sites of each layer's public functions (module attributes and
concrete class methods), records one span per call, and derives each
layer's self time: a span's duration minus the part of its interval that
its child spans cover.  Spans stay in memory and are written as JSONL
when the run ends.  Clocks are ``time.perf_counter`` (CLOCK_MONOTONIC on
Linux), so spans recorded by the benchmark process and by a traced
server process share one time base.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

#: ``attrs(args, kwargs, result) -> dict`` computes a span's counters.
AttrsFn = Callable[[tuple, dict, Any], dict]


@dataclass
class Span:
    """One timed call: ``parent`` is the enclosing span's id (0 at top)."""

    id: int
    parent: int
    name: str
    start: float
    end: float = 0.0
    tag: str = ""
    attrs: dict = field(default_factory=dict)


def merged_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval first, so a child
    that overlaps another child, or outlives its parent, is never
    subtracted twice or beyond the parent's own duration.
    """
    spans = list(spans)
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        clipped = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(span.id, ())
        ]
        covered = merged_length((a, b) for a, b in clipped if b > a)
        out[span.id] = max(0.0, (span.end - span.start) - covered)
    return out


class Tracer:
    """Records spans for wrapped calls; one instance per traced phase."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.tag = ""
        self.names: set[str] = set()  # every span name wrapped so far
        self._stack: list[Span] = []
        self._active: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------
    def open(self, name: str) -> Span:
        """Start a span under the innermost open one, tagged with :attr:`tag`."""
        parent = self._stack[-1].id if self._stack else 0
        span = Span(len(self.spans) + 1, parent, name, self.clock(), tag=self.tag)
        self.spans.append(span)
        self._stack.append(span)
        self._active[name] += 1
        return span

    def retag(self, tag: str) -> None:
        """Tag the innermost open span, and every span opened from now on."""
        self.tag = tag
        if self._stack:
            self._stack[-1].tag = tag

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()
        self._active[span.name] -= 1

    def wrap(self, name: str, fn: Callable, attrs: Optional[AttrsFn] = None) -> Callable:
        """``fn`` wrapped to record a ``name`` span per outermost call.

        A call made while a span of the same name is already open (an
        attack delegating to an inner attack, a spec builder calling the
        fingerprint helpers) runs unrecorded, so counters are not
        counted twice and its time stays in the outer span.
        """
        tracer = self
        self.names.add(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if tracer._active[name]:
                return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    # -- patching ------------------------------------------------------
    # A wrapper that finds no binding raises: a renamed or moved function
    # must fail the traced run, not read as a layer that did no work.
    def patch_function(self, original: Callable, name: str, attrs: Optional[AttrsFn] = None) -> None:
        """Wrap ``original`` at every ``repro`` module binding (see :func:`rebind`)."""
        restore = rebind(original, self.wrap(name, original, attrs))
        if not restore:
            raise LookupError(f"no binding of {original.__qualname__} to trace as {name}")
        self._patches.extend(restore)

    def patch_method(self, cls: type, method: str, name: str, attrs: Optional[AttrsFn] = None) -> None:
        """Wrap ``method`` on ``cls`` and on every subclass defining its own."""
        found = False
        for klass in [cls, *all_subclasses(cls)]:
            original = klass.__dict__.get(method)
            if callable(original) and not isinstance(original, (staticmethod, classmethod)):
                self.patch_attr(klass, method, self.wrap(name, original, attrs))
                found = True
        if not found:
            raise LookupError(f"no method {cls.__qualname__}.{method} to trace as {name}")

    def patch_attr(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr``, remembering the original for :meth:`unpatch`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        """Restore every binding patched by this tracer (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------
    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__, separators=(",", ":")) + "\n")


def rebind(original: Callable, replacement: Callable) -> list[tuple[Any, str, Any]]:
    """Point every ``repro`` module attribute that is ``original`` at ``replacement``.

    Functions imported by name (``from m import f``) have one binding
    per importing module; all of them are replaced.  Returns
    ``(module, attribute, original)`` triples for undoing the change.
    """
    restore = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                restore.append((module, attr, value))
                setattr(module, attr, replacement)
    return restore


def all_subclasses(cls: type) -> list[type]:
    seen: list[type] = []
    todo = list(cls.__subclasses__())
    while todo:
        klass = todo.pop()
        if klass not in seen:
            seen.append(klass)
            todo.extend(klass.__subclasses__())
    return seen


def read_jsonl(path: str) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span(**json.loads(line)) for line in handle if line.strip()]


@dataclass
class LayerTotals:
    """Per-span-name totals: call count, self seconds and summed counters."""

    calls: int = 0
    self_s: float = 0.0
    counters: dict = field(default_factory=lambda: defaultdict(float))


def layer_totals(spans: Iterable[Span]) -> dict[str, LayerTotals]:
    """Totals per span name; spans still open when recorded are skipped."""
    spans = [span for span in spans if span.end >= span.start]
    selfs = self_times(spans)
    totals: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for span in spans:
        entry = totals[span.name]
        entry.calls += 1
        entry.self_s += selfs[span.id]
        for key, value in span.attrs.items():
            entry.counters[key] += value
    return totals
