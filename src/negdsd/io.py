"""Text edge-list parsing and serialization for the command-line front end.

Three whitespace-delimited formats, ``#`` starting a comment anywhere:

* signed      "u v w" (net weight, split by sign) or "u v wpos wneg",
              auto-detected from the first data line;
* uncertain   "u v p w" (on/off edges; "u v p" defaults the reward to 1) or
              "u v mu sigma2" (moments), chosen by the caller;
* multilayer  "u v layer".

Node labels are arbitrary strings mapped to dense ids in order of first
appearance; parsers return the label table alongside the edges.
"""

from __future__ import annotations

import math
from typing import Iterable

from .core import SignedGraph
from .errors import ParseError


class LabelMap:
    """Bidirectional mapping between string labels and dense int ids."""

    def __init__(self):
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}

    def id_for(self, label: str) -> int:
        node = self._ids.get(label)
        if node is None:
            node = len(self.labels)
            self._ids[label] = node
            self.labels.append(label)
        return node

    def __len__(self) -> int:
        return len(self.labels)


def _data_lines(text: str) -> Iterable[tuple[int, list[str]]]:
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        yield lineno, body.split()


def _parse_float(token: str, lineno: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(lineno, f"cannot parse {what} {token!r} as a number") from None
    if not math.isfinite(value):
        raise ParseError(lineno, f"{what} {token!r} must be finite")
    return value


def parse_signed(text: str) -> tuple[list[tuple[int, int, float, float]], LabelMap]:
    """Parse a signed edge list, auto-detecting the 3- or 4-column layout."""
    labels = LabelMap()
    edges: list[tuple[int, int, float, float]] = []
    width = None
    for lineno, fields in _data_lines(text):
        if width is None:
            if len(fields) not in (3, 4):
                raise ParseError(lineno, f"expected 3 or 4 fields, got {len(fields)}")
            width = len(fields)
        if len(fields) != width:
            raise ParseError(lineno, f"expected {width} fields, got {len(fields)}")
        u = labels.id_for(fields[0])
        v = labels.id_for(fields[1])
        if width == 3:
            w = _parse_float(fields[2], lineno, "weight")
            edges.append((u, v, max(w, 0.0), max(-w, 0.0)))
        else:
            wpos = _parse_float(fields[2], lineno, "positive weight")
            wneg = _parse_float(fields[3], lineno, "negative weight")
            if wpos < 0 or wneg < 0:
                raise ParseError(lineno, "weight magnitudes must be nonnegative")
            edges.append((u, v, wpos, wneg))
    return edges, labels


def parse_bernoulli(text: str) -> tuple[list[tuple[int, int, float, float]], LabelMap]:
    """Parse "u v p w" on/off edges; a 3-column "u v p" line defaults w to 1."""
    labels = LabelMap()
    edges: list[tuple[int, int, float, float]] = []
    for lineno, fields in _data_lines(text):
        if len(fields) not in (3, 4):
            raise ParseError(lineno, f"expected 3 or 4 fields, got {len(fields)}")
        u = labels.id_for(fields[0])
        v = labels.id_for(fields[1])
        p = _parse_float(fields[2], lineno, "probability")
        w = _parse_float(fields[3], lineno, "reward") if len(fields) == 4 else 1.0
        if not 0 < p <= 1:
            raise ParseError(lineno, f"probability must be in (0, 1], got {p}")
        if w < 0:
            raise ParseError(lineno, f"reward must be >= 0, got {w}")
        edges.append((u, v, p, w))
    return edges, labels


def parse_moments(text: str) -> tuple[list[tuple[int, int, float, float]], LabelMap]:
    """Parse "u v mu sigma2" moment edges."""
    labels = LabelMap()
    edges: list[tuple[int, int, float, float]] = []
    for lineno, fields in _data_lines(text):
        if len(fields) != 4:
            raise ParseError(lineno, f"expected 4 fields, got {len(fields)}")
        u = labels.id_for(fields[0])
        v = labels.id_for(fields[1])
        mu = _parse_float(fields[2], lineno, "expected reward")
        sigma2 = _parse_float(fields[3], lineno, "risk")
        if mu < 0 or sigma2 < 0:
            raise ParseError(lineno, "moments must be nonnegative")
        edges.append((u, v, mu, sigma2))
    return edges, labels


def parse_multilayer(text: str) -> tuple[list[tuple[int, int, str]], LabelMap]:
    """Parse "u v layer" multigraph edges; layer names are arbitrary strings."""
    labels = LabelMap()
    edges: list[tuple[int, int, str]] = []
    for lineno, fields in _data_lines(text):
        if len(fields) != 3:
            raise ParseError(lineno, f"expected 3 fields, got {len(fields)}")
        u = labels.id_for(fields[0])
        v = labels.id_for(fields[1])
        edges.append((u, v, fields[2]))
    return edges, labels


def format_signed(graph: SignedGraph, labels: list[str] | None = None) -> str:
    """Serialize to the 4-column signed format; weights round-trip bit-exactly."""
    if labels is None:
        labels = [str(i) for i in range(graph.n)]
    lines = [f"{labels[u]} {labels[v]} {wpos!r} {wneg!r}" for u, v, wpos, wneg in graph.rows()]
    return "\n".join(lines) + ("\n" if lines else "")
