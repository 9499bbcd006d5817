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
``risk_tolerance`` factor of :class:`ObjectiveParams`).

Layout.  A :class:`SignedGraph` is a set of read-only numpy arrays.  Edge
``e`` is ``(u[e], v[e], wpos[e], wneg[e])`` with ``u[e] <= v[e]``, edges in
order of first appearance among the input records.  A CSR index lists the
arcs of node ``x`` as positions ``indptr[x]:indptr[x+1]`` of ``neighbor``
and ``edge_id``, in edge order; a loop has one arc.  ``deg_pos``/``deg_neg``
are summed by one ``np.bincount`` over the interleaved endpoints
``u[0], v[0], u[1], v[1], ...``: that adds the weights in the order of a
per-edge loop, so degrees, and every peel score built from them, are the
same to the last bit as those of such a loop.  The totals and induced
weights are likewise sequential sums in edge order.  ``graph.edges`` is a
tuple of :class:`SignedEdge` built from the arrays on first access, holding
Python scalars; the solvers never read it.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass
from decimal import Decimal
from itertools import starmap
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


@dataclass(frozen=True, slots=True)
class SignedEdge:
    """One collapsed edge with ``u <= v``; a loop when ``u == v``.

    Both weights are nonnegative magnitudes; the net weight of the pair is
    ``wpos - wneg``.
    """

    u: int
    v: int
    wpos: float
    wneg: float

    @property
    def net(self) -> float:
        return self.wpos - self.wneg


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

    __slots__ = (
        "n", "u", "v", "wpos", "wneg", "deg_pos", "deg_neg", "indptr", "neighbor", "edge_id",
        "total_pos", "total_neg", "_edges", "_orders",
    )

    def __init__(self, n: int, u: np.ndarray, v: np.ndarray, wpos: np.ndarray, wneg: np.ndarray):
        """Wrap collapsed columns: ``u <= v``, at most one edge per pair."""
        self.n = n
        self.u, self.v, self.wpos, self.wneg = u, v, wpos, wneg
        ends = np.stack([u, v], axis=1).ravel()  # loops appear twice, counting twice
        self.deg_pos = _bincount(ends, np.repeat(wpos, 2), n)
        self.deg_neg = _bincount(ends, np.repeat(wneg, 2), n)
        self.total_pos, self.total_neg = _check_total_weight(wpos), _check_total_weight(wneg)
        self.indptr, self.neighbor, self.edge_id = _csr(n, u, v)
        arrays = (u, v, wpos, wneg, self.deg_pos, self.deg_neg, self.indptr, self.neighbor, self.edge_id)
        for array in arrays:
            array.flags.writeable = False
        self._edges = None
        self._orders: dict[float, np.ndarray] = {}  # multiplier -> removal sequence

    @property
    def m(self) -> int:
        """Number of collapsed edges."""
        return self.u.shape[0]

    @property
    def edges(self) -> tuple[SignedEdge, ...]:
        """The collapsed edges as :class:`SignedEdge` objects, in edge order."""
        if self._edges is None:
            self._edges = tuple(starmap(SignedEdge, self.rows()))
        return self._edges

    def rows(self) -> Iterator[tuple[int, int, float, float]]:
        """(u, v, wpos, wneg) of each edge as Python scalars, in edge order."""
        return _rows(self.u, self.v, self.wpos, self.wneg)

    def positive_degree(self, u: int) -> float:
        return float(self.deg_pos[u])

    def negative_degree(self, u: int) -> float:
        return float(self.deg_neg[u])

    def degree(self, u: int) -> float:
        """Total degree: positive minus negative, loops counted twice."""
        return float(self.deg_pos[u] - self.deg_neg[u])

    def positive_degrees(self) -> list[float]:
        return self.deg_pos.tolist()

    def negative_degrees(self) -> list[float]:
        return self.deg_neg.tolist()

    def net_weighted(self) -> "WeightedGraph":
        """Collapse each pair to its single net weight ``wpos - wneg``."""
        return WeightedGraph._from_columns(self.n, self.u, self.v, self.wpos - self.wneg)

    def __repr__(self) -> str:
        return f"SignedGraph(n={self.n}, m={self.m})"


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
    """(indptr, neighbor, edge_id) of the arcs of edges (u[e], v[e]) over nodes 0..n-1.

    Each node's arcs are in edge order; a loop has one arc.
    """
    m = u.shape[0]
    keep = np.ones(2 * m, dtype=bool)
    keep[1::2] = u != v
    tail = np.stack([u, v], axis=1).ravel()[keep]
    head = np.stack([v, u], axis=1).ravel()[keep]
    arcs = tail.shape[0]
    _check_arc_keys(n, arcs)
    # distinct keys, ordered by node and then by edge: a fast unstable sort will do
    order = np.argsort(tail * arcs + np.arange(arcs))
    edge = np.flatnonzero(keep) // 2
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tail, minlength=n), out=indptr[1:])
    return indptr, head[order], edge[order]


def _check_arc_keys(n: int, arcs: int) -> None:
    """Reject a graph whose CSR sort key ``node * arcs + arc`` overflows int64."""
    if n * arcs >= 2**63:
        raise TooLargeError(f"{n} nodes with {arcs} arcs overflow the 64-bit sort key")


def _rows(*columns: np.ndarray) -> Iterator[tuple]:
    """Row tuples of equal-length columns, holding Python scalars."""
    return zip(*(column.tolist() for column in columns))


class EdgeColumns:
    """Raw (u, v, a, b) records as columns: int64 ids ``u``, ``v`` and float64 values ``a``, ``b``.

    The parsers of :mod:`negdsd.io` return one, and :func:`build_signed_graph`,
    :func:`~negdsd.uncertain.build_uncertain_graph` and
    :func:`~negdsd.uncertain.bernoulli_graph` take it in place of an iterable of
    records, with no per-record tuple.  ``len`` is the number of records;
    iterating yields them as tuples of Python scalars.
    """

    __slots__ = ("u", "v", "a", "b")

    def __init__(self, u: np.ndarray, v: np.ndarray, a: np.ndarray, b: np.ndarray):
        self.u, self.v, self.a, self.b = u, v, a, b

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
    them as (u, v, name) tuples.
    """

    __slots__ = ("u", "v", "layer", "names")

    def __init__(self, u: np.ndarray, v: np.ndarray, layer: np.ndarray, names: tuple):
        self.u, self.v, self.layer, self.names = u, v, layer, names

    def __len__(self) -> int:
        return self.u.shape[0]

    def __iter__(self) -> Iterator[tuple[int, int, Hashable]]:
        return _layer_rows(self.u, self.v, self.layer, self.names)


def _layer_rows(u: np.ndarray, v: np.ndarray, layer: np.ndarray, names: tuple) -> Iterator[tuple[int, int, Hashable]]:
    return zip(u.tolist(), v.tolist(), map(names.__getitem__, layer.tolist()))


class WeightedGraph:
    """Undirected graph with one real weight per record (may be negative).

    Records are kept as given, parallel ones and loops included, in
    read-only columns: ids ``u``, ``v`` (int64, checked to lie in 0..n-1)
    and weights ``w``, float64 when every weight is a float and otherwise
    an object array of the weights as passed (each checked to be a real
    number within the float range), which the exact solvers then read one
    by one.
    ``edges`` lists the (u, v, w) records: those passed to the constructor,
    or, for a graph made from columns, rows of Python scalars built on
    first access.  ``all_nonnegative`` records whether every weight is
    >= 0, which is the regime where exact max-flow solving applies.
    """

    __slots__ = ("n", "u", "v", "w", "all_nonnegative", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, float]]):
        records = list(edges)
        us, vs, ws = _record_columns(records, "(u, v, w)")
        n, u, v = _id_columns(n, us, vs)
        floats = set(map(type, ws)) <= {float, np.float64}
        if not floats:  # the exact solvers convert every weight to float64; 10**400 has none
            for record in records:
                _check_float_range(*record)
        self._set(n, u, v, np.array(ws, dtype=np.float64 if floats else object))
        self._edges = records

    @classmethod
    def _from_columns(cls, n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> "WeightedGraph":
        """Wrap valid id columns and a float64 weight column without a copy."""
        graph = cls.__new__(cls)
        graph._set(n, u, v, w)
        graph._edges = None
        return graph

    def _set(self, n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> None:
        self.n, self.u, self.v, self.w = n, u, v, w
        for array in (u, v, w):
            array.flags.writeable = False
        self.all_nonnegative = bool((w >= 0).all())

    @property
    def m(self) -> int:
        """Number of records."""
        return self.w.shape[0]

    @property
    def edges(self) -> list[tuple[int, int, float]]:
        """The (u, v, w) records, in order."""
        if self._edges is None:
            self._edges = list(_rows(self.u, self.v, self.w))
        return self._edges

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, m={self.m}, all_nonnegative={self.all_nonnegative})"


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


def _check_float_range(u, v, *weights) -> None:
    """Reject a weight of record (u, v, ...) that is not a real number or that no float holds (10**400).

    The type is tested, not the conversion: ``float('1.5')`` takes a string.
    """
    for w in weights:
        if not (isinstance(w, _REAL_TYPES) or _is_numpy_real(w)):
            raise BadParametersError(f"edge ({u}, {v}) has a weight that is not a real number: {w!r}")
        try:
            float(w)
        except OverflowError:
            raise BadParametersError(f"edge ({u}, {v}) has a weight beyond the float range") from None


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
    return SignedGraph(*_collapse(raw_edges, n, _check_magnitudes))


def _check_magnitudes(u, v, wpos, wneg) -> None:
    if not (math.isfinite(wpos) and math.isfinite(wneg)):
        raise BadParametersError(f"edge ({u}, {v}) has non-finite weight")
    if wpos < 0 or wneg < 0:
        raise NegativeMagnitudeError(
            f"edge ({u}, {v}) has negative magnitude ({wpos}, {wneg}); "
            "encode sign by choosing the field, not the value"
        )


_DTYPES = (np.int64, np.int64, np.float64, np.float64)


def _collapse(
    raw_edges: Iterable[tuple[int, int, float, float]] | EdgeColumns,
    n: int | None,
    check_weights: Callable[[int, int, float, float], None],
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_collapse_columns` of raw (u, v, a, b) records with int ids and finite weights, all >= 0.

    The records, or the arrays of :class:`EdgeColumns`, are checked as
    columns at once; when a check fails, they are walked in order, so the
    first bad one raises: its ids and a weight that is not a real number or
    beyond the float range by the shared checks, its weights by
    ``check_weights``.
    """
    if isinstance(raw_edges, EdgeColumns):
        records, columns = raw_edges, [raw_edges.u, raw_edges.v, raw_edges.a, raw_edges.b]
    else:
        records = list(raw_edges)
        columns = _typed_columns(records)
    if columns is None or not all(bool((c >= 0).all()) for c in columns) or not np.isfinite(columns[2:]).all():
        for u, v, a, b in records:
            _check_ids(u, v)
            _check_float_range(u, v, a, b)
            check_weights(u, v, a, b)
    if columns is None:  # valid, but of types such as numpy floats or ids of any size
        us, vs, a, b = _record_columns(records, "(u, v, a, b)")
        n, u, v = _id_columns(n, us, vs, _MAX_PACKED_ID)
        columns = [u, v, np.array(a, dtype=np.float64), np.array(b, dtype=np.float64)]
    return _collapse_columns(n, *columns)


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


def _typed_columns(records: list) -> list[np.ndarray] | None:
    """Column arrays of 4-item records with int ids and int or float weights, else None."""
    try:
        columns = _record_columns(records, "(u, v, a, b)")
    except (BadParametersError, TypeError):  # a record of another length, or not a sequence
        return None
    ids = set(map(type, columns[0])) | set(map(type, columns[1]))
    weights = set(map(type, columns[2])) | set(map(type, columns[3]))
    if not (ids <= {int} and weights <= {int, float}):
        return None
    try:
        return [np.array(column, dtype=dtype) for column, dtype in zip(columns, _DTYPES)]
    except OverflowError:  # an id beyond 64 bits or an int weight beyond a float
        return None


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
    induced = _induced_edges(graph, node_set)
    wpos = _sequential_sum(graph.wpos[induced])
    wneg = _sequential_sum(graph.wneg[induced])
    return wpos, wneg, (wpos - wneg) / len(node_set)


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


def tilde_weights(graph: SignedGraph, q: float, risk_tolerance: float = 1.0) -> WeightedGraph:
    """Reweight each pair to the single value ``wpos - q*risk_tolerance*wneg``.

    This converts the question "is the objective >= q somewhere" into a plain
    density threshold on the returned graph.  Its ``all_nonnegative`` flag
    tells whether the query can be answered exactly by max-flow.
    """
    if q < 0:
        raise BadParametersError(f"query value must be >= 0, got {q}")
    if risk_tolerance <= 0:
        raise BadParametersError(f"risk_tolerance must be > 0, got {risk_tolerance}")
    net = graph.wpos - q * risk_tolerance * graph.wneg
    return WeightedGraph._from_columns(graph.n, graph.u, graph.v, net)
