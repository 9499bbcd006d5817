"""Text edge-list parsing and serialization for the command-line front end.

Three whitespace-delimited formats, ``#`` starting a comment anywhere:

* signed      "u v w" (net weight, split by sign) or "u v wpos wneg",
              auto-detected from the first data line;
* uncertain   "u v p w" (on/off edges; "u v p" defaults the reward to 1) or
              "u v mu sigma2" (moments), chosen by the caller;
* multilayer  "u v layer".

Node labels are arbitrary strings mapped to dense ids in order of first
appearance.  Parsers return the records alongside the list of labels: as
:class:`~negdsd.core.EdgeColumns`, which the builders take as they are,
or, for a multilayer file, as its :class:`~negdsd.multilayer.MultilayerGraph`.

Parsing is one tokenizer for every format.  Plain text (ASCII, with no
``#`` and no control character but tab and newline) is cut at line breaks
into chunks of about a million characters, each split with ``str.split``;
the field count of each line is checked in numpy over the chunk's bytes,
labels and layer names are coded by one :class:`~negdsd.core._Codes` each,
numbers are converted by Python's
``float`` (so exactly the tokens and values a line-by-line parse accepts),
and ranges are checked as columns.  Any other text, and plain text that
fails a check, is walked line by line, which parses it or raises
:class:`~negdsd.errors.ParseError` at the first bad line.  Error messages
and line numbers are those of the line walk, whichever path runs.
"""

from __future__ import annotations

import codecs
import math
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .core import EdgeColumns, SignedGraph, _Codes
from .errors import BadParametersError, ParseError

if TYPE_CHECKING:
    from .multilayer import MultilayerGraph


def decode(data: bytes) -> str:
    """UTF-8 ``data`` as text, with universal newlines as a text-mode ``open`` reads it.

    Lines end only at ``\n``, ``\r\n`` and ``\r``, all of which become ``\n``.
    One leading byte-order mark is skipped.  An undecodable byte raises
    :class:`ParseError` at its line.
    """
    data = data.removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = _newlines(data[: exc.start].decode("utf-8")).count("\n") + 1
        raise ParseError(line, f"byte {data[exc.start]:#04x} is not valid UTF-8") from None
    return _newlines(text)


def _newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


# Plain text is split this many characters at a time, up to the next line
# break, so that only one chunk's tokens are alive at once; any size gives
# the same parse.
_CHUNK = 1 << 20


class _Format(NamedTuple):
    """A line layout: two node labels, then ``numbers`` (their names, for messages), then a layer name.

    ``rules`` are (holds, message) pairs over a line's numbers, checked in
    order once all of them parse; ``holds`` takes floats or float columns
    alike.  A line one field short of the widest leaves out its last number,
    which is then ``default``.
    """

    widths: tuple[int, ...]
    numbers: tuple[str, ...] = ()
    rules: tuple[tuple[Callable, Callable[..., str]], ...] = ()
    default: float = 1.0


def _nonnegative(a, b):
    return (a >= 0) & (b >= 0)


_NET = _Format((3,), ("weight",))
_PAIR = _Format(
    (4,),
    ("positive weight", "negative weight"),
    ((_nonnegative, lambda a, b: "weight magnitudes must be nonnegative"),),
)
_BERNOULLI = _Format(
    (3, 4),
    ("probability", "reward"),
    (
        (lambda p, w: (0 < p) & (p <= 1), lambda p, w: f"probability must be in (0, 1], got {p}"),
        (lambda p, w: w >= 0, lambda p, w: f"reward must be >= 0, got {w}"),
    ),
)
_MOMENTS = _Format((4,), ("expected reward", "risk"), ((_nonnegative, lambda a, b: "moments must be nonnegative"),))
_LAYERED = _Format((3,))


class _Columns:
    """A file's records, added a batch of lines at a time: end labels (``u0, v0,
    u1, v1, ...``) and layer names as codes, and one float column per number."""

    def __init__(self, fmt: _Format):
        self.format = fmt
        self.labels, self.names = _Codes(), _Codes()
        empty = np.zeros(0, dtype=np.int64)
        self._ends, self._layers = [empty], [empty]  # the codes of each batch
        self._numbers = [[np.zeros(0)] for _ in fmt.numbers]

    def add(self, ends: list[str], numbers: Iterable[np.ndarray], names: list[str]) -> None:
        self._ends.append(self.labels.code(ends))
        self._layers.append(self.names.code(names))
        for column, values in zip(self._numbers, numbers):
            column.append(values)

    def numbers(self) -> list[np.ndarray]:
        return [np.concatenate(column) for column in self._numbers]

    def edges(self, *numbers: np.ndarray) -> tuple[EdgeColumns, list[str]]:
        """The records, ``a`` and ``b`` the numbers given or else the file's."""
        return EdgeColumns(*self._ids(), *(numbers or self.numbers())), list(self.labels)

    def layers(self) -> tuple[MultilayerGraph, list[str]]:
        from .multilayer import MultilayerGraph  # here, so that `negdsd peel` loads no multilayer code

        graph = MultilayerGraph(len(self.labels), *self._ids(), np.concatenate(self._layers), tuple(self.names))
        return graph, list(self.labels)

    def _ids(self) -> tuple[np.ndarray, np.ndarray]:
        ends = np.concatenate(self._ends)
        return ends[0::2], ends[1::2]


def _parse(text: str, formats: tuple[_Format, ...]) -> _Columns:
    """The records of ``text``; the first data line picks the format."""
    return _split(text, formats) or _walk(text, formats)


def _split(text: str, formats: tuple[_Format, ...]) -> _Columns | None:
    """The records of plain text, or None when the text is not plain or any check fails.

    Plain text is ASCII with no ``#`` and no control character but tab and
    newline, so its only whitespace is space, tab and newline.
    """
    if not text.isascii() or "#" in text:
        return None
    columns = None
    for chunk in _chunks(text):
        widths = _field_counts(chunk)
        if widths is None:
            return None
        if not widths.shape[0]:
            continue
        fmt = columns.format if columns else _pick(formats, int(widths[0]))
        if fmt is None or not np.isin(widths, fmt.widths).all():
            return None
        columns = columns or _Columns(fmt)
        if not _add_lines(columns, chunk.split(), widths):
            return None
    return columns or _Columns(formats[0])


def _chunks(text: str) -> Iterator[str]:
    """``text`` in pieces of about ``_CHUNK`` characters, each up to a newline or the end."""
    start = 0
    while start < len(text):
        stop = text.find("\n", start + _CHUNK) + 1 or len(text)
        yield text[start:stop]
        start = stop


def _field_counts(chunk: str) -> np.ndarray | None:
    """The field count of each data line of ASCII text; None when it holds a control character but tab and newline."""
    raw = np.frombuffer(f"\n{chunk}\n".encode("ascii"), dtype=np.uint8)
    newline = raw == 10
    if np.count_nonzero(raw < 32) != np.count_nonzero(newline) + np.count_nonzero(raw == 9):
        return None
    space = raw <= 32
    # The field starts and line ends of raw[1:] in order; each line's field
    # count is the number of starts between two line ends.
    events = np.flatnonzero((space[:-1] > space[1:]) | newline[1:])
    breaks = np.flatnonzero(newline[1:][events])
    widths = np.diff(breaks, prepend=-1) - 1
    return widths[widths > 0]


def _add_lines(columns: _Columns, tokens: list[str], widths: np.ndarray) -> bool:
    """Add lines of ``widths[i]`` fields each, whose fields are ``tokens``, to ``columns``;
    False, adding nothing, when a number does not parse or fails a check."""
    fmt = columns.format
    uniform = int(widths[0]) if (widths == widths[0]).all() else 0
    first = np.cumsum(widths) - widths  # token index of each line's first field

    def field(j: int) -> list[str]:
        if uniform:
            return tokens[j::uniform] if j < uniform else []
        return list(map(tokens.__getitem__, (first[widths > j] + j).tolist()))

    numbers = []
    for j in range(2, 2 + len(fmt.numbers)):
        tokens_j = field(j)
        try:
            values = np.fromiter(map(float, tokens_j), dtype=np.float64, count=len(tokens_j))
        except ValueError:
            return False
        if len(tokens_j) < widths.shape[0]:  # lines that leave the last number out
            column = np.full(widths.shape[0], fmt.default)
            column[widths > j] = values
            values = column
        numbers.append(values)
    if not all(np.isfinite(values).all() for values in numbers):
        return False
    if not all(holds(*numbers).all() for holds, _ in fmt.rules):
        return False
    ends = [None] * (2 * widths.shape[0])
    ends[0::2], ends[1::2] = field(0), field(1)
    columns.add(ends, numbers, field(2 + len(fmt.numbers)))
    return True


def _walk(text: str, formats: tuple[_Format, ...]) -> _Columns:
    """The records of any text, line by line; raises :class:`ParseError` at the first bad line."""
    fmt = None
    ends: list[str] = []
    rows: list[list[float]] = []
    names: list[str] = []
    for lineno, fields in _data_lines(text):
        if fmt is None:
            fmt = _pick(formats, len(fields))
            allowed = sorted({width for each in formats for width in each.widths}) if fmt is None else fmt.widths
        if fmt is None or len(fields) not in fmt.widths:
            raise ParseError(lineno, f"expected {' or '.join(map(str, allowed))} fields, got {len(fields)}")
        ends += fields[:2]
        end = 2 + len(fmt.numbers)
        row = [_parse_float(token, lineno, what) for token, what in zip(fields[2:end], fmt.numbers)]
        row += [fmt.default] * (len(fmt.numbers) - len(row))
        for holds, message in fmt.rules:
            if not holds(*row):
                raise ParseError(lineno, message(*row))
        rows.append(row)
        names += fields[end:]
    columns = _Columns(fmt or formats[0])
    numbers = np.array(rows, dtype=np.float64).reshape(len(rows), len(columns.format.numbers)).T
    columns.add(ends, numbers, names)
    return columns


def _pick(formats: tuple[_Format, ...], width: int) -> _Format | None:
    """The first format whose lines may have ``width`` fields."""
    return next((fmt for fmt in formats if width in fmt.widths), None)


def _data_lines(text: str) -> Iterable[tuple[int, list[str]]]:
    """The number and fields of each line with data; lines end as in :func:`decode`."""
    for lineno, line in enumerate(_newlines(text).split("\n"), start=1):
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


def parse_signed(text: str) -> tuple[EdgeColumns, list[str]]:
    """Parse a signed edge list, auto-detecting the 3- or 4-column layout.

    A net weight w becomes (max(w, 0), max(-w, 0)), as Python's ``max`` gives them.
    """
    columns = _parse(text, (_NET, _PAIR))
    numbers = columns.numbers()
    if columns.format is _NET:
        (w,) = numbers
        numbers = [np.where(w < 0.0, 0.0, w), np.where(-w < 0.0, 0.0, -w)]
    return columns.edges(*numbers)


def parse_bernoulli(text: str) -> tuple[EdgeColumns, list[str]]:
    """Parse "u v p w" on/off edges (``a`` = p, ``b`` = w); a 3-column "u v p" line defaults w to 1."""
    return _parse(text, (_BERNOULLI,)).edges()


def parse_moments(text: str) -> tuple[EdgeColumns, list[str]]:
    """Parse "u v mu sigma2" moment edges (``a`` = mu, ``b`` = sigma2)."""
    return _parse(text, (_MOMENTS,)).edges()


def parse_multilayer(text: str) -> tuple[MultilayerGraph, list[str]]:
    """Parse "u v layer" multigraph edges into their graph, one node per label; layer
    names are arbitrary strings.  It equals ``build_multilayer_graph`` of the records."""
    return _parse(text, (_LAYERED,)).layers()


def format_signed(graph: SignedGraph, labels: list[str] | None = None) -> str:
    """Serialize to the 4-column signed format; weights round-trip bit-exactly.

    ``labels[i]`` names node i (its id by default).  :func:`parse_signed`
    reads each back as one field, so there must be exactly n distinct
    nonempty strings with no whitespace and no ``#``, or
    :class:`BadParametersError` is raised.
    """
    if labels is None:
        labels = [str(i) for i in range(graph.n)]
    elif len(labels) != graph.n or len(set(labels)) != graph.n:
        raise BadParametersError(f"need {graph.n} distinct labels, got {len(labels)} ({len(set(labels))} distinct)")
    else:
        for label in labels:
            if not isinstance(label, str) or label.split() != [label] or "#" in label:
                raise BadParametersError(f"label {label!r} must be a nonempty string with no whitespace and no '#'")
    lines = [f"{labels[u]} {labels[v]} {wpos!r} {wneg!r}" for u, v, wpos, wneg in graph.rows()]
    return "\n".join(lines) + ("\n" if lines else "")
