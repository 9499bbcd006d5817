"""Multilayer multigraphs and exclusion queries.

An exclusion query rewrites a multilayer multigraph into a signed graph:
every edge whose layer is allowed keeps weight +1, every edge of an excluded
layer becomes a negative weight W.  Soft queries take a finite user-chosen W
(a few excluded edges may survive in a dense output); hard queries compute a
W large enough to certify that no optimal set induces any excluded edge.
A query is one mask over the layer codes of a :class:`MultilayerGraph`,
and per-layer counts are ``np.bincount`` calls over those codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator

import numpy as np

from .core import (
    SignedGraph,
    _Codes,
    _check_ids,
    _check_node_set,
    _collapse_columns,
    _id_columns,
    _is_finite_real,
    _record_columns,
)
from .core import build_signed_graph  # noqa: F401  re-exported; callers may look it up here
from .errors import BadParametersError, UnknownLayerError

Layer = Hashable


class MultilayerGraph:
    """Multigraph whose edges carry a layer label; parallel edges allowed.

    Construct through :func:`build_multilayer_graph`, or parse a file with
    :func:`~negdsd.io.parse_multilayer`.  The records are read-only int64
    columns ``u``, ``v`` and ``layer``, the last coding the names in order
    of first appearance.
    """

    __slots__ = ("n", "u", "v", "layer", "layers", "_names")

    def __init__(self, n: int, u: np.ndarray, v: np.ndarray, layer: np.ndarray, names: tuple):
        self.n, self.u, self.v, self.layer, self._names = n, u, v, layer, names
        for array in (u, v, layer):
            array.flags.writeable = False
        self.layers = frozenset(names)

    def rows(self) -> Iterator[tuple[int, int, Layer]]:
        """(u, v, layer) of each record as Python scalars and names, in record order."""
        return zip(self.u.tolist(), self.v.tolist(), map(self._names.__getitem__, self.layer.tolist()))

    def __repr__(self) -> str:
        return f"MultilayerGraph(n={self.n}, m={self.u.shape[0]}, layers={len(self.layers)})"


def build_multilayer_graph(raw_edges: Iterable[tuple[int, int, Layer]], n: int | None = None) -> MultilayerGraph:
    """A :class:`MultilayerGraph` of raw (u, v, layer) records, ids and ``n``
    checked with the errors of :func:`~negdsd.core.build_signed_graph`.

    A layer name that is not hashable is a :class:`BadParametersError`; the
    first bad record, ids before name, decides the error.  Layer names are
    coded in order of first appearance, as :func:`~negdsd.io.parse_multilayer`
    codes those of a file.
    """
    us, vs, labels = _record_columns(list(raw_edges), "(u, v, layer)")
    names = _Codes()
    try:
        layer = names.code(labels)
    except TypeError:  # a name that is not hashable: walk the records in order, ids first
        for record in zip(us, vs, labels):
            _check_ids(*record[:2])
            try:
                hash(record[2])
            except TypeError:
                raise BadParametersError(f"layer names must be hashable, got the record {record!r}") from None
    n, u, v = _id_columns(n, us, vs)
    return MultilayerGraph(n, u, v, layer, tuple(names))


@dataclass(frozen=True, slots=True)
class ExclusionQuery:
    """Which layers to penalize and how hard.

    A soft query charges a finite penalty ``w`` per excluded edge; ``w is
    None`` makes the query hard, its penalty resolved by :func:`hard_w` at
    apply time, certifying exclusion.  ``mode`` reads "soft" or "hard".
    ``excluded`` is kept as a frozenset of names (:func:`_layer_set`).
    """

    excluded: frozenset
    w: float | None = 1.0

    def __post_init__(self):
        object.__setattr__(self, "excluded", _layer_set(self.excluded))
        if self.w is not None and not (_is_finite_real(self.w) and self.w > 0):
            raise BadParametersError(f"soft queries need a finite penalty weight W > 0, got {self.w}")

    @property
    def mode(self) -> str:
        return "hard" if self.w is None else "soft"

    @classmethod
    def soft(cls, excluded: Iterable[Layer], w: float) -> "ExclusionQuery":
        if w is None:  # None would make the query hard
            raise BadParametersError("soft queries need a finite penalty weight W > 0, got None")
        return cls(excluded, w)

    @classmethod
    def hard(cls, excluded: Iterable[Layer]) -> "ExclusionQuery":
        return cls(excluded, None)


def _layer_set(excluded: Iterable[Layer]) -> frozenset:
    """The layer names of an iterable as a frozenset; a bare string (one name, not a set of letters) is rejected."""
    if isinstance(excluded, str):
        raise BadParametersError(f"excluded layers must be a collection of names, not the string {excluded!r}")
    try:
        return frozenset(excluded)
    except TypeError:  # not iterable, or a name that is not hashable
        raise BadParametersError(f"excluded layers must be an iterable of hashable names, got {excluded!r}") from None


def hard_w(graph: MultilayerGraph, excluded: Iterable[Layer]) -> int:
    """Penalty large enough to certify exclusion: non-excluded edge count + 1.

    Any set inducing even one excluded edge then has net weight at most -1,
    so it loses to any single node (density 0) and a fortiori to any clean
    positive pair (density 1/2).
    """
    excluded = _layer_set(excluded)
    allowed = np.array([name not in excluded for name in graph._names], dtype=bool)
    return int(allowed[graph.layer].sum()) + 1


def _penalized(graph: MultilayerGraph, query: ExclusionQuery) -> tuple[np.ndarray, float]:
    """Mask of the layer codes a query excludes, and its penalty W; every excluded layer must exist."""
    unknown = query.excluded - graph.layers
    if unknown:
        raise UnknownLayerError(f"layers {sorted(map(str, unknown))} not present in the graph")
    penalty = float(hard_w(graph, query.excluded) if query.w is None else query.w)
    return np.array([name in query.excluded for name in graph._names], dtype=bool), penalty


def apply_exclusion(graph: MultilayerGraph, query: ExclusionQuery) -> SignedGraph:
    """Rewrite the multigraph as a signed graph under an exclusion query.

    Allowed edges contribute wpos=1, excluded edges wneg=W; parallel edges
    sum componentwise, so two excluded parallels weigh 2W.
    """
    excluded, penalty = _penalized(graph, query)
    dropped = excluded[graph.layer]
    wpos, wneg = np.where(dropped, 0.0, 1.0), np.where(dropped, penalty, 0.0)
    return SignedGraph(*_collapse_columns(graph.n, graph.u, graph.v, wpos, wneg))


def _induced_records(graph: MultilayerGraph, node_set: frozenset[int]) -> np.ndarray:
    """Mask of the records with both ends in the nonempty set.

    Nothing n long is allocated, as n may be near 2**63: when the set's ids
    span fewer values than there are records, a lookup table over that span
    marks the members; otherwise the records are matched with ``np.isin``.
    """
    members = np.fromiter(node_set, dtype=np.int64, count=len(node_set))
    lo, hi = int(members.min()), int(members.max())
    if hi - lo >= graph.u.shape[0]:
        return np.isin(graph.u, members) & np.isin(graph.v, members)
    # The slot past the span stays False: ids above the span are clipped to
    # that slot, ids below it to -1, which indexes the same slot.
    table = np.zeros(hi - lo + 2, dtype=bool)
    table[members - lo] = True

    def inside(ids: np.ndarray) -> np.ndarray:
        return table[np.clip(ids - lo, -1, hi - lo + 1)]  # ids and lo are >= 0: no overflow

    return inside(graph.u) & inside(graph.v)


def layer_count(graph: MultilayerGraph, nodes: Iterable[int], layer: Layer) -> int:
    """Number of layer edges with both endpoints in the set."""
    return _layer_count(graph, _check_node_set(graph, nodes), layer)


def layer_density(graph: MultilayerGraph, nodes: Iterable[int], layer: Layer) -> float:
    """Induced edge count of one layer divided by the set size."""
    node_set = _check_node_set(graph, nodes)
    return _layer_count(graph, node_set, layer) / len(node_set)


def _layer_count(graph: MultilayerGraph, node_set: frozenset[int], layer: Layer) -> int:
    """:func:`layer_count` of a checked node set; the layer must exist."""
    if layer not in graph.layers:
        raise UnknownLayerError(f"layer {layer!r} not present in the graph")
    induced = graph.layer[_induced_records(graph, node_set)]
    return int(np.count_nonzero(induced == graph._names.index(layer)))


def layer_report(
    graph: MultilayerGraph,
    nodes: Iterable[int],
    query: ExclusionQuery | None = None,
) -> dict:
    """Per-layer induced counts plus raw and signed densities of a node set.

    The signed density weighs excluded layers at -W (the density they carry
    in the rewritten graph); without a query it equals the raw density.
    Layers are in order of ``str``, then of first appearance.
    """
    node_set = _check_node_set(graph, nodes)
    counts = np.bincount(graph.layer[_induced_records(graph, node_set)], minlength=len(graph._names)).tolist()
    excluded, penalty = _penalized(graph, query) if query is not None else (np.zeros(len(counts), bool), 0.0)
    report = {}
    for layer, count, dropped in sorted(zip(graph._names, counts, excluded), key=lambda row: str(row[0])):
        raw = count / len(node_set)
        signed = -penalty * raw if (dropped and count) else raw
        report[layer] = {"count": count, "density": raw, "signed_density": signed}
    return report
