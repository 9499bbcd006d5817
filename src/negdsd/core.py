"""Signed-weight graphs: a positive and a negative weight magnitude per pair.

Conventions shared by every solver in the package:

* parallel input edges collapse by componentwise sum, so at most one stored
  edge exists per unordered node pair;
* loops are allowed; a loop counts twice toward its node's degrees and once
  toward any induced weight;
* densities are compared with an absolute tolerance of ``TIE_TOLERANCE``
  when detecting ties.

Keeping (wpos, wneg) pairs instead of one net value preserves the degree of
freedom needed to rescale the negative side independently (the
``risk_tolerance`` factor of :class:`ObjectiveParams`).  It is the one graph
type of the solvers: the exact max-flow ones solve on the net weights
``wpos - wneg``, all of which must be >= 0.

Layout.  A :class:`SignedGraph` is a set of read-only numpy arrays.  Edge
``e`` is ``(u[e], v[e], wpos[e], wneg[e])`` with ``u[e] <= v[e]``, edges in
order of first appearance among the input records.  A CSR index lists the
arcs of node ``x`` as positions ``indptr[x]:indptr[x+1]`` of ``neighbor``
and of the arc weights ``arc_pos`` and ``arc_neg`` (the weights of each
arc's edge), in edge order; a loop has one arc.  The peel reads the index
and the exact solvers do not, so it is built on first read (its size bound
is checked at construction); a sweep builds it before it forks, and every
multiplier and every worker reads the same copy.  ``deg_pos``/``deg_neg``
are summed by one ``np.bincount`` over the interleaved endpoints
``u[0], v[0], u[1], v[1], ...``: that adds the weights in the order of a
per-edge loop, so degrees, and every peel score built from them, are the
same to the last bit as those of such a loop.  The totals and induced
weights are likewise sequential sums in edge order.  ``graph.rows()``
yields the edges as tuples of Python scalars; the solvers never call it.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass
from decimal import Decimal
from operator import index, itemgetter
from typing import Callable, Hashable, Iterable, Iterator

import numpy as np

from .errors import (
    BadParametersError,
    EmptySetError,
    NegativeMagnitudeError,
    TooLargeError,
    UnknownNodeError,
    ZeroDenominatorError,
)

TIE_TOLERANCE = 1e-12

# Largest id of an int64 column, and the largest for which the packed pair
# key lo*(max_id + 1) + hi fits in int64.
_MAX_INT64 = 2**63 - 1
_MAX_PACKED_ID = math.isqrt(_MAX_INT64) - 1

# Weight types taken as real numbers: ints, floats, fractions, numpy numbers, decimals.
_REAL_TYPES = (numbers.Real, Decimal)


class SignedGraph:
    """Immutable undirected graph over dense node ids 0..n-1.

    Construct through :func:`build_signed_graph`.  Every array is read-only
    (see the module docstring for the layout), which makes instances safe
    to share across threads.  :func:`~negdsd.peeling.peel_order` reads only
    these arrays and holds no Python list of arcs, so forked sweep workers
    share every page of the graph.  :func:`~negdsd.peeling.c_sweep` keeps the
    removal order of each multiplier it peels on the instance, as a
    read-only int64 array, so later sweeps of the same graph reuse it; two
    sweeps that peel one multiplier at once store the same order.
    """

    __slots__ = ("n", "u", "v", "wpos", "wneg", "deg_pos", "deg_neg", "total_pos", "total_neg", "_index", "_orders")

    def __init__(self, n: int, u: np.ndarray, v: np.ndarray, wpos: np.ndarray, wneg: np.ndarray):
        """Wrap collapsed columns: ``u <= v``, at most one edge per pair."""
        self.n = n
        self.u, self.v, self.wpos, self.wneg = u, v, wpos, wneg
        self.total_pos, self.total_neg = _check_total_weight(wpos), _check_total_weight(wneg)
        _check_arc_keys(n, 2 * u.shape[0] - int(np.count_nonzero(u == v)))  # before anything n long
        ends = np.stack([u, v], axis=1).ravel()  # loops appear twice, counting twice
        self.deg_pos = _bincount(ends, np.repeat(wpos, 2), n)
        self.deg_neg = _bincount(ends, np.repeat(wneg, 2), n)
        for array in (u, v, wpos, wneg, self.deg_pos, self.deg_neg):
            array.flags.writeable = False
        self._index = None
        self._orders: dict[float, np.ndarray] = {}  # multiplier -> removal sequence

    indptr = property(lambda self: self._arc_index()[0])
    neighbor = property(lambda self: self._arc_index()[1])
    arc_pos = property(lambda self: self._arc_index()[2])
    arc_neg = property(lambda self: self._arc_index()[3])

    def _arc_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, neighbor, arc_pos, arc_neg), built on first read; threads that race store equal arrays."""
        if self._index is None:
            indptr, neighbor, arc = _csr(self.n, self.u, self.v)
            edge = arc // 2
            index = (indptr, neighbor, self.wpos[edge], self.wneg[edge])
            for array in index:
                array.flags.writeable = False
            self._index = index
        return self._index

    @property
    def m(self) -> int:
        """Number of collapsed edges."""
        return self.u.shape[0]

    def rows(self) -> Iterator[tuple[int, int, float, float]]:
        """(u, v, wpos, wneg) of each edge as Python scalars, in edge order."""
        return _rows(self.u, self.v, self.wpos, self.wneg)

    def net_weighted(self) -> "SignedGraph":
        """The pairs' net weights ``wpos - wneg``, split by sign: ``tilde_weights(self, 1.0)``."""
        return tilde_weights(self, 1.0)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, m={self.m})"


def _bincount(index: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Per-node sums of ``weights``, added in array order (float even when empty)."""
    return np.bincount(index, weights=weights, minlength=n).astype(np.float64, copy=False)


def _sequential_sum(values: np.ndarray) -> float:
    """``0.0 + values[0] + values[1] + ...`` left to right, as a plain loop adds."""
    if not values.shape[0]:
        return 0.0
    with np.errstate(over="ignore"):  # an infinite total is reported by its caller
        return 0.0 + float(np.cumsum(values)[-1])


def _csr(n: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, neighbor, arc) of the arcs of edges (u[e], v[e]) over nodes 0..n-1.

    ``arc`` is each arc's position in the ends ``u[0], v[0], u[1], v[1], ...``:
    2e from ``u[e]``, 2e + 1 from ``v[e]``.  Each node's arcs are in that
    order; a loop has one arc.  It indexes a graph, the exact q-core and
    each cut network.
    """
    m = u.shape[0]
    keep = np.ones(2 * m, dtype=bool)
    keep[1::2] = u != v
    tail = np.stack([u, v], axis=1).ravel()[keep]
    head = np.stack([v, u], axis=1).ravel()[keep]
    arcs = tail.shape[0]
    # SignedGraph and Dinic check that the key fits (exact programs are a graph's
    # subgraphs); the keys are distinct, so a fast unstable sort will do
    order = np.argsort(tail * arcs + np.arange(arcs))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tail, minlength=n), out=indptr[1:])
    return indptr, head[order], np.flatnonzero(keep)[order]


def _check_arc_keys(n: int, arcs: int) -> None:
    """Reject a graph whose CSR sort key ``node * arcs + arc`` overflows int64."""
    if n * arcs >= 2**63:
        raise TooLargeError(f"{n} nodes with {arcs} arcs overflow the 64-bit sort key")


def _rows(*columns: np.ndarray) -> Iterator[tuple]:
    """Row tuples of equal-length columns, holding Python scalars."""
    return zip(*(column.tolist() for column in columns))


def _checked_columns(owner: str, **columns: tuple[np.ndarray, type]) -> list[np.ndarray]:
    """The columns given as ``name=(values, dtype)``, each a 1-D array cast to
    its dtype with ``casting="safe"`` (no copy when it is one already).

    :class:`BadParametersError` names the first column that is not 1-D or
    does not cast, or every length when they differ.
    """
    cast = []
    for name, (values, dtype) in columns.items():
        try:
            column = np.asarray(values).astype(dtype, casting="safe", copy=False)
        except (TypeError, ValueError):  # ragged, or of a type that does not cast safely
            found = getattr(values, "dtype", type(values).__name__)
            raise BadParametersError(f"{owner}.{name} must cast safely to {np.dtype(dtype)}, got {found}") from None
        if column.ndim != 1:
            raise BadParametersError(f"{owner}.{name} must be a 1-D column, got shape {column.shape}")
        cast.append(column)
    if len({column.shape[0] for column in cast}) > 1:
        lengths = ", ".join(f"{name} {column.shape[0]}" for name, column in zip(columns, cast))
        raise BadParametersError(f"{owner} columns must have one length, got {lengths}")
    return cast


class EdgeColumns:
    """Raw (u, v, a, b) records as columns: int64 ids ``u``, ``v`` and float64 values ``a``, ``b``.

    The parsers of :mod:`negdsd.io` return one, and :func:`build_signed_graph`,
    :func:`~negdsd.uncertain.build_uncertain_graph` and
    :func:`~negdsd.uncertain.bernoulli_graph` take it in place of an iterable of
    records, with no per-record tuple.  ``len`` is the number of records;
    iterating yields them as tuples of Python scalars.  The columns must be
    1-D and of one length; they are cast to int64 and float64 with
    ``casting="safe"``, with no copy when they are already, and
    :class:`BadParametersError` names a column that is not.
    """

    __slots__ = ("u", "v", "a", "b")

    def __init__(self, u: np.ndarray, v: np.ndarray, a: np.ndarray, b: np.ndarray):
        self.u, self.v, self.a, self.b = _checked_columns(
            "EdgeColumns", u=(u, np.int64), v=(v, np.int64), a=(a, np.float64), b=(b, np.float64)
        )

    def __len__(self) -> int:
        return self.u.shape[0]

    def __iter__(self) -> Iterator[tuple[int, int, float, float]]:
        return _rows(self.u, self.v, self.a, self.b)


class LayerColumns:
    """Raw (u, v, layer) records as columns: int64 ids ``u``, ``v`` and int64
    ``layer`` codes into ``names``, the layer names in order of first appearance.

    :func:`~negdsd.io.parse_multilayer` returns one, and
    :func:`~negdsd.multilayer.build_multilayer_graph` takes it in place of an
    iterable of records.  ``len`` is the number of records; iterating yields
    them as (u, v, name) tuples.  The columns are checked and cast to int64
    as :class:`EdgeColumns`' are, every code must be in
    ``range(len(names))``, and the names must be distinct and hashable.
    """

    __slots__ = ("u", "v", "layer", "names")

    def __init__(self, u: np.ndarray, v: np.ndarray, layer: np.ndarray, names: tuple):
        self.u, self.v, self.layer = _checked_columns(
            "LayerColumns", u=(u, np.int64), v=(v, np.int64), layer=(layer, np.int64)
        )
        self.names = names
        if self.layer.shape[0] and not 0 <= self.layer.min() <= self.layer.max() < len(names):
            raise BadParametersError(f"LayerColumns.layer codes must be in range({len(names)}) of the names")
        with contextlib.suppress(TypeError):  # a name that is not hashable
            if len(set(names)) == len(names):
                return
        raise BadParametersError(f"LayerColumns.names must be distinct hashable names, got {names!r}")

    def __len__(self) -> int:
        return self.u.shape[0]

    def __iter__(self) -> Iterator[tuple[int, int, Hashable]]:
        return _layer_rows(self.u, self.v, self.layer, self.names)


class _Codes(dict):
    """Token -> dense code, in order of first appearance: reading a new token gives it the next code."""

    def __missing__(self, token: Hashable) -> int:
        code = self[token] = len(self)
        return code

    def code(self, tokens: list) -> np.ndarray:
        """The codes of ``tokens`` as an int64 array; ``TypeError`` when one is not hashable."""
        return np.fromiter(map(self.__getitem__, tokens), dtype=np.int64, count=len(tokens))


def _layer_rows(u: np.ndarray, v: np.ndarray, layer: np.ndarray, names: tuple) -> Iterator[tuple[int, int, Hashable]]:
    return zip(u.tolist(), v.tolist(), map(names.__getitem__, layer.tolist()))


def _record_columns(records: list, fields: str) -> list[list]:
    """The columns of records shaped like ``fields``, such as "(u, v, w)", as lists."""
    width = fields.count(",") + 1
    if not set(map(len, records)) <= {width}:
        raise BadParametersError(f"edges must be {fields} records")
    return [list(map(itemgetter(i), records)) for i in range(width)]


def _id_columns(n, us: list, vs: list, limit: int = _MAX_INT64) -> tuple[int, np.ndarray, np.ndarray]:
    """(n, u, v): n as an int (max id + 1 for None) and the node ids as int64 columns in 0..n-1.

    When every id is an int, the ids become int64 columns at once and
    their least and largest are taken in numpy.  They are walked in order
    only when some is not an int, is negative or is beyond int64, so the
    first bad one raises; an id of any size is compared with n and with
    ``limit`` (at most the int64 range) before it becomes an int64.
    """
    u = v = None
    if set(map(type, us)) | set(map(type, vs)) <= {int}:
        with contextlib.suppress(OverflowError):  # an id beyond int64
            u, v = np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64)
    if u is None or (us and min(u.min(), v.min()) < 0):
        for a, b in zip(us, vs):
            _check_ids(a, b)
        max_id = max(max(us), max(vs)) if us else -1
    else:
        max_id = int(max(u.max(), v.max())) if us else -1
    n = max_id + 1 if n is None else _node_count(n, max_id)
    if max_id > limit:
        raise TooLargeError(f"node ids must be at most {limit}, got {max_id}")
    if u is None:  # ints of other types, such as bools
        u, v = np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64)
    return n, u, v


def _check_ids(u, v) -> None:
    if not isinstance(u, int) or not isinstance(v, int) or u < 0 or v < 0:
        raise BadParametersError(f"node ids must be nonnegative integers, got ({u!r}, {v!r})")


def _real_float(w, subject: str) -> float:
    """``float(w)``; :class:`BadParametersError` "<subject> that is not a real number" (or
    "beyond the float range") when ``w`` is not a real number or no float holds it (10**400).

    The type is tested, not the conversion: ``float('1.5')`` takes a string.
    """
    if not (isinstance(w, _REAL_TYPES) or _is_numpy_real(w)):
        raise BadParametersError(f"{subject} that is not a real number: {w!r}")
    try:
        return float(w)
    except OverflowError:
        raise BadParametersError(f"{subject} beyond the float range") from None
    except ValueError:  # a signaling NaN, which no float holds
        raise BadParametersError(f"{subject} that is not a real number: {w!r}") from None


def _is_numpy_real(w) -> bool:
    """Whether ``w`` is a numpy bool or a 0-d array of bools, ints or floats, which ``numbers.Real`` misses."""
    return isinstance(w, (np.generic, np.ndarray)) and w.ndim == 0 and w.dtype.kind in "biuf"


def _node_count(n, max_id: int) -> int:
    """``n`` as an int, checked to be nonnegative and above every id."""
    count = _int_or_negative(n)
    if count < 0:
        raise BadParametersError(f"n must be a nonnegative integer, got {n!r}")
    if count < max_id + 1:
        raise UnknownNodeError(f"edge references node {max_id} but n={n}")
    return count


def _int_or_negative(x) -> int:
    """``x`` as a Python int when it is an integer of any type, else -1."""
    try:
        return index(x)
    except TypeError:
        return -1


def _is_finite_real(x) -> bool:
    """Whether ``x`` is a number that a finite float holds.

    NaN, infinities, ints no float holds (10**400), strings and None fail,
    with no error of their own.
    """
    with contextlib.suppress(OverflowError, TypeError, ValueError):
        return math.isfinite(x)
    return False


@dataclass(frozen=True, slots=True)
class ObjectiveParams:
    """Parameters of the ratio objective.

    The objective of a nonempty node set S is::

        (wpos(S) + lambda1*|S|) / (risk_tolerance*wneg(S) + lambda2*|S|)

    ``lambda2`` must be strictly positive so the denominator never vanishes;
    ``risk_tolerance`` scales how strongly induced negative weight is
    penalized (default 1).
    """

    lambda1: float = 1.0
    lambda2: float = 1.0
    risk_tolerance: float = 1.0

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "risk_tolerance"):
            if not _is_finite_real(getattr(self, name)):
                raise BadParametersError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lambda2 <= 0:
            raise ZeroDenominatorError(
                f"lambda2 must be > 0 to keep the objective denominator positive, got {self.lambda2}"
            )
        if self.lambda1 < 0:
            raise BadParametersError(f"lambda1 must be >= 0, got {self.lambda1}")
        if self.risk_tolerance <= 0:
            raise BadParametersError(f"risk_tolerance must be > 0, got {self.risk_tolerance}")

    @property
    def rho(self) -> float:
        """Size-preference ratio lambda1/lambda2; >= 1 favors larger sets."""
        return self.lambda1 / self.lambda2


@dataclass(frozen=True, slots=True)
class DsdResult:
    """A discovered node set together with its densities and provenance."""

    nodes: frozenset[int]
    net_density: float
    wpos_total: float
    wneg_total: float
    exact: bool
    algorithm: str
    f_value: float | None = None
    c_used: float | None = None

    @property
    def size(self) -> int:
        return len(self.nodes)

    @classmethod
    def evaluate(
        cls,
        graph: SignedGraph,
        nodes: Iterable[int],
        algorithm: str,
        exact: bool,
        params: ObjectiveParams | None = None,
        c_used: float | None = None,
    ) -> "DsdResult":
        """Build a result by measuring ``nodes`` directly on ``graph``."""
        node_set = frozenset(nodes)
        wpos, wneg, density = induced_weights(graph, node_set)
        f_value = _objective(wpos, wneg, len(node_set), params) if params is not None else None
        return cls(node_set, density, wpos, wneg, exact, algorithm, f_value, c_used)


def build_signed_graph(
    raw_edges: Iterable[tuple[int, int, float, float]] | EdgeColumns,
    n: int | None = None,
) -> SignedGraph:
    """Collapse raw (u, v, wpos, wneg) records, or :class:`EdgeColumns`, into a :class:`SignedGraph`.

    Parallel records on the same unordered pair are summed componentwise.
    Node count defaults to ``max id + 1``; pass ``n`` to keep trailing
    isolated nodes.

    Raises :class:`NegativeMagnitudeError` if any magnitude is negative and
    :class:`BadParametersError` on non-integer ids, weights that are not
    real numbers (such as strings), non-finite weights or weights beyond
    the float range (an int such as 10**400), or a weight
    total whose double overflows a float; the first bad record decides
    which.
    """
    return SignedGraph(*_collapse_columns(*_intake(raw_edges, n, _check_magnitudes)))


def _check_magnitudes(u, v, wpos, wneg) -> None:
    if not (math.isfinite(wpos) and math.isfinite(wneg)):
        raise BadParametersError(f"edge ({u}, {v}) has non-finite weight")
    if wpos < 0 or wneg < 0:
        raise NegativeMagnitudeError(
            f"edge ({u}, {v}) has negative magnitude ({wpos}, {wneg}); "
            "encode sign by choosing the field, not the value"
        )


_DTYPES = (np.int64, np.int64, np.float64, np.float64)


def _intake(
    raw_edges: Iterable[tuple[int, int, float, float]] | EdgeColumns,
    n: int | None,
    check_weights: Callable[[int, int, float, float], None],
) -> tuple[int | None, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(n, u, v, a, b) of raw (u, v, a, b) records, or :class:`EdgeColumns`, as int64 and float64 columns.

    The ids and weights must be >= 0 and the weights finite.  The arrays of
    :class:`EdgeColumns`, or records of int ids and int or float weights,
    are checked as columns at once; when a check fails, or a record holds
    other types, :func:`_check_records` walks them in order, so the first
    bad one raises.  ``n`` is returned as given, or counted by
    :func:`_id_columns` for records of other types.
    """
    if isinstance(raw_edges, EdgeColumns):
        records, columns = raw_edges, [raw_edges.u, raw_edges.v, raw_edges.a, raw_edges.b]
    else:
        records, columns = list(raw_edges), None
        with contextlib.suppress(BadParametersError, TypeError):  # a record of another length, or not a sequence
            fields = _record_columns(records, "(u, v, a, b)")
            ids = set(map(type, fields[0])) | set(map(type, fields[1]))
            weights = set(map(type, fields[2])) | set(map(type, fields[3]))
            if ids <= {int} and weights <= {int, float}:
                with contextlib.suppress(OverflowError):  # an id beyond 64 bits or an int weight beyond a float
                    columns = [np.array(field, dtype=dtype) for field, dtype in zip(fields, _DTYPES)]
    if columns is None or not all(bool((c >= 0).all()) for c in columns) or not np.isfinite(columns[2:]).all():
        _check_records(records, check_weights)
    if columns is None:  # valid, but of types such as numpy floats or ids of any size
        us, vs, a, b = _record_columns(records, "(u, v, a, b)")
        n, u, v = _id_columns(n, us, vs, _MAX_PACKED_ID)
        columns = [u, v, np.array(a, dtype=np.float64), np.array(b, dtype=np.float64)]
    return n, *columns


def _check_records(records: Iterable[tuple], check_weights: Callable[[int, int, float, float], None]) -> None:
    """Walk (u, v, a, b) records in order, so the first bad one raises: its ids and a weight
    that is not a real number or beyond the float range by the shared checks, its weights by
    ``check_weights``."""
    for record in records:
        try:
            u, v, a, b = record
        except (TypeError, ValueError):  # not a sequence, or of another length
            raise BadParametersError(f"edges must be (u, v, a, b) records, got {record!r}") from None
        _check_ids(u, v)
        for w in (a, b):
            _real_float(w, f"edge ({u}, {v}) has a weight")
        check_weights(u, v, a, b)


def _collapse_columns(n, u, v, a, b) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(n, u, v, a, b) of valid record columns, one row per unordered pair; ``n`` None counts max id + 1.

    Rows have ``u <= v`` and follow the order of each pair's first record;
    ``a`` and ``b`` of parallel records are added in record order.
    """
    records = u.shape[0]
    n, max_id = _column_node_count(n, u, v)
    if max_id > _MAX_PACKED_ID:
        raise TooLargeError(f"node ids must be at most {_MAX_PACKED_ID}, got {max_id}")
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    pairs, inverse = np.unique(lo * (max_id + 1) + hi, return_inverse=True)
    first = np.full(pairs.shape[0], records)
    np.minimum.at(first, inverse, np.arange(records))
    by_appearance = np.argsort(first)
    head = first[by_appearance]  # the first record of each pair, in record order
    rank = np.empty_like(by_appearance)
    rank[by_appearance] = np.arange(by_appearance.shape[0])
    sums = [a[head], b[head]]
    later = np.ones(records, dtype=bool)
    later[head] = False
    if later.any():
        row = rank[inverse[later]]
        with np.errstate(over="ignore"):  # SignedGraph rejects an infinite total
            for total, column in zip(sums, (a, b)):
                np.add.at(total, row, column[later])  # in record order
    return n, lo[head], hi[head], sums[0], sums[1]


def _column_node_count(n, u: np.ndarray, v: np.ndarray) -> tuple[int, int]:
    """(n, largest id) of nonnegative int64 id columns; ``n`` None counts largest id + 1."""
    max_id = max(int(u.max()), int(v.max())) if u.shape[0] else -1
    return (max_id + 1 if n is None else _node_count(n, max_id)), max_id


def _check_total_weight(weights: np.ndarray) -> float:
    """The sequential total of a weight column, rejected when its double
    overflows: it bounds every degree and induced weight."""
    total = _sequential_sum(weights)
    if not math.isfinite(2 * total):
        raise BadParametersError(f"total edge weight {total} is too large for a float")
    return total


def _check_node_set(graph, nodes: Iterable[int]) -> frozenset[int]:
    """Nonempty frozenset of valid ids, integers of any type, as Python ints; reads only ``graph.n``."""
    node_set = frozenset(nodes)
    if not node_set:
        raise EmptySetError("node set must be nonempty")
    for v in node_set:
        if not 0 <= _int_or_negative(v) < graph.n:
            raise UnknownNodeError(f"node {v!r} not in 0..{graph.n - 1}")
    return frozenset(map(index, node_set))


def induced_weights(graph: SignedGraph, nodes: Iterable[int]) -> tuple[float, float, float]:
    """Total (wpos, wneg, net density) induced by a nonempty node set.

    An edge is induced when both endpoints lie in the set; induced loops
    contribute their weight once.
    """
    node_set = _check_node_set(graph, nodes)
    return _induced_totals(graph, _induced_edges(graph, node_set), len(node_set))


def _induced_totals(graph, induced: np.ndarray, size: int) -> tuple[float, float, float]:
    """(wpos, wneg, net density) of ``size`` nodes inducing the edges of the mask ``induced``, in edge order."""
    wpos = _sequential_sum(graph.wpos[induced])
    wneg = _sequential_sum(graph.wneg[induced])
    return wpos, wneg, (wpos - wneg) / size


def _induced_edges(graph, node_set: frozenset[int]) -> np.ndarray:
    """Mask of the edges of ``graph`` (arrays ``u``, ``v``) with both ends in the set."""
    inside = np.zeros(graph.n, dtype=bool)
    inside[np.fromiter(node_set, dtype=np.int64, count=len(node_set))] = True
    return inside[graph.u] & inside[graph.v]


def objective_f(graph: SignedGraph, nodes: Iterable[int], params: ObjectiveParams) -> float:
    """Ratio objective (wpos(S) + l1|S|) / (rt*wneg(S) + l2|S|); always >= 0."""
    node_set = _check_node_set(graph, nodes)
    wpos, wneg, _ = induced_weights(graph, node_set)
    return _objective(wpos, wneg, len(node_set), params)


def _objective(wpos, wneg, size, params: ObjectiveParams):
    """The ratio objective from induced weights and size; scalars or arrays alike."""
    return (wpos + params.lambda1 * size) / (params.risk_tolerance * wneg + params.lambda2 * size)


def objective_upper_bound(graph: SignedGraph, params: ObjectiveParams) -> float:
    """Upper bound on the objective over all nonempty sets.

    Uses all positive weight with zero negative weight, the largest possible
    numerator size term and the smallest denominator size term:
    ``(total_pos + lambda1*n) / lambda2``.
    """
    return (graph.total_pos + params.lambda1 * graph.n) / params.lambda2


def _check_objective_range(graph: SignedGraph, params: ObjectiveParams) -> float:
    """:func:`objective_upper_bound`, rejected when it overflows, as objective values then may."""
    upper = objective_upper_bound(graph, params)
    if not math.isfinite(upper):
        raise BadParametersError(f"objective values may overflow a float: upper bound {upper}")
    return upper


def tilde_weights(graph: SignedGraph, q: float, risk_tolerance: float = 1.0) -> SignedGraph:
    """Reweight each pair to the single value ``wpos - q*risk_tolerance*wneg``, split by sign.

    This converts the question "is the objective >= q somewhere" into a plain
    density threshold on the returned graph, whose ``wpos`` holds the values
    >= 0 (-0.0 too) and ``wneg`` the magnitudes of the others.  When its
    ``total_neg`` is 0 the query can be answered exactly by max-flow.  A
    pair with ``wneg`` zero forms no product, so an infinite
    ``q*risk_tolerance`` leaves it; an infinite magnitude raises.
    """
    for name, value in (("q", q), ("risk_tolerance", risk_tolerance)):
        if not _is_finite_real(value):
            raise BadParametersError(f"{name} must be finite, got {value!r}")
    if q < 0:
        raise BadParametersError(f"query value must be >= 0, got {q}")
    if risk_tolerance <= 0:
        raise BadParametersError(f"risk_tolerance must be > 0, got {risk_tolerance}")
    scale = q * risk_tolerance
    penalty = math.copysign(0.0, scale) * graph.wneg  # a zero wneg's product, signed as with a finite scale
    with np.errstate(over="ignore"):  # an infinite magnitude is rejected by the SignedGraph
        np.multiply(scale, graph.wneg, out=penalty, where=graph.wneg != 0)
    net = graph.wpos - penalty
    positive = net >= 0
    return SignedGraph(graph.n, graph.u, graph.v, np.where(positive, net, 0.0), np.where(positive, 0.0, -net))
