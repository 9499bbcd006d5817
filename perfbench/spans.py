"""In-memory spans for the traced run, recorded from the benchmark's side.

A :class:`Tracer` keeps spans (name, start, end, parent, counts) in a list
and writes them out once at the end.  :meth:`Tracer.patch` replaces a
function or method at the place where the library looks it up with a
wrapper that opens a span around each call, and :meth:`Tracer.unpatch`
puts the originals back, so untraced runs execute the library unchanged.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Tracer.spans, -1 at the top
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1)
        self.spans.append(record)
        self._stack.append(index)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Wrap ``owner.attr`` in a span; ``count(args, result)`` returns counts."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if count is not None:
                    record.counts.update(count(args, result))
                return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(s) for s in self.spans], handle)


class Summary:
    """Per-name totals over the spans below a set of root spans.

    Durations, calls and counts take only the outermost span of each name,
    so a layer reached again through another wrapped name is not counted
    twice.  Self time is a span's duration minus that of its direct
    children.  ``attributed`` is the time of the spans directly below the
    roots.
    """

    def __init__(self, spans: list[Span], roots):
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.pairs: dict[tuple[str, str], int] = defaultdict(int)
        roots = set(roots)
        self.root_seconds = sum(spans[root].seconds for root in roots)
        self.attributed = 0.0
        above = {root: frozenset([spans[root].name]) for root in roots}
        members = []
        for index, s in enumerate(spans):  # a parent always precedes its children
            if s.parent in above:
                above[index] = above[s.parent] | {spans[s.parent].name}
                members.append(index)
        child_seconds: dict[int, float] = defaultdict(float)
        for index in members:
            child_seconds[spans[index].parent] += spans[index].seconds
        for index in members:
            s = spans[index]
            self.self_seconds[s.name] += s.seconds - child_seconds[index]
            self.pairs[(spans[s.parent].name, s.name)] += 1
            if s.parent in roots:
                self.attributed += s.seconds
            if s.name in above[index]:
                continue
            self.seconds[s.name] += s.seconds
            self.calls[s.name] += 1
            for key, value in s.counts.items():
                self.counts[(s.name, key)] += value
