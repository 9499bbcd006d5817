"""Multilayer multigraphs and exclusion queries.

An exclusion query rewrites a multilayer multigraph into a signed graph:
every edge whose layer is allowed keeps weight +1, every edge of an excluded
layer becomes a negative weight W.  Soft queries take a finite user-chosen W
(a few excluded edges may survive in a dense output); hard queries compute a
W large enough to certify that no optimal set induces any excluded edge.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterable

from .core import SignedGraph, _check_ids, _check_node_set, _node_count, build_signed_graph
from .errors import BadParametersError, UnknownLayerError

Layer = Hashable


class MultilayerGraph:
    """Multigraph whose edges carry a layer label; parallel edges allowed."""

    __slots__ = ("n", "edges", "layers")

    def __init__(self, n: int, edges: list[tuple[int, int, Layer]]):
        self.n = n
        self.edges = edges
        self.layers = frozenset(layer for _, _, layer in edges)

    def __repr__(self) -> str:
        return f"MultilayerGraph(n={self.n}, m={len(self.edges)}, layers={len(self.layers)})"


def build_multilayer_graph(
    raw_edges: Iterable[tuple[int, int, Layer]],
    n: int | None = None,
) -> MultilayerGraph:
    """A :class:`MultilayerGraph` of raw (u, v, layer) records, checked as
    :func:`~negdsd.core.build_signed_graph` checks ids and ``n``."""
    edges = []
    max_id = -1
    for u, v, layer in raw_edges:
        _check_ids(u, v)
        if u > max_id:
            max_id = u
        if v > max_id:
            max_id = v
        edges.append((u, v, layer))
    return MultilayerGraph(max_id + 1 if n is None else _node_count(n, max_id), edges)


@dataclass(frozen=True, slots=True)
class ExclusionQuery:
    """Which layers to penalize and how hard.

    ``mode`` is "soft" (finite penalty ``w`` per excluded edge) or "hard"
    (penalty resolved by :func:`hard_w` at apply time, certifying exclusion).
    """

    excluded: frozenset
    mode: str = "soft"
    w: float | None = 1.0

    def __post_init__(self):
        if self.mode not in ("soft", "hard"):
            raise BadParametersError(f"mode must be 'soft' or 'hard', got {self.mode!r}")
        if self.mode == "soft" and (self.w is None or not 0 < self.w < math.inf):  # NaN fails too
            raise BadParametersError(f"soft queries need a finite penalty weight W > 0, got {self.w}")

    @classmethod
    def soft(cls, excluded: Iterable[Layer], w: float) -> "ExclusionQuery":
        return cls(frozenset(excluded), "soft", w)

    @classmethod
    def hard(cls, excluded: Iterable[Layer]) -> "ExclusionQuery":
        return cls(frozenset(excluded), "hard", None)


def hard_w(graph: MultilayerGraph, excluded: Iterable[Layer]) -> int:
    """Penalty large enough to certify exclusion: non-excluded edge count + 1.

    Any set inducing even one excluded edge then has net weight at most -1,
    so it loses to any single node (density 0) and a fortiori to any clean
    positive pair (density 1/2).
    """
    return _hard_w(Counter(layer for _, _, layer in graph.edges), excluded)


def _hard_w(layer_sizes: dict, excluded: Iterable[Layer]) -> int:
    """:func:`hard_w` from the edge count of every layer."""
    excluded_set = frozenset(excluded)
    return sum(size for layer, size in layer_sizes.items() if layer not in excluded_set) + 1


def apply_exclusion(graph: MultilayerGraph, query: ExclusionQuery) -> SignedGraph:
    """Rewrite the multigraph as a signed graph under an exclusion query.

    Allowed edges contribute wpos=1, excluded edges wneg=W; parallel edges
    sum componentwise, so two excluded parallels weigh 2W.
    """
    unknown = query.excluded - graph.layers
    if unknown:
        raise UnknownLayerError(f"layers {sorted(map(str, unknown))} not present in the graph")
    penalty = float(query.w) if query.mode == "soft" else float(hard_w(graph, query.excluded))
    raw = [
        (u, v, 0.0, penalty) if layer in query.excluded else (u, v, 1.0, 0.0)
        for u, v, layer in graph.edges
    ]
    return build_signed_graph(raw, n=graph.n)


def layer_count(graph: MultilayerGraph, nodes: Iterable[int], layer: Layer) -> int:
    """Number of layer edges with both endpoints in the set."""
    if layer not in graph.layers:
        raise UnknownLayerError(f"layer {layer!r} not present in the graph")
    node_set = _check_node_set(graph, nodes)
    return sum(
        1
        for u, v, edge_layer in graph.edges
        if edge_layer == layer and u in node_set and v in node_set
    )


def layer_density(graph: MultilayerGraph, nodes: Iterable[int], layer: Layer) -> float:
    """Induced edge count of one layer divided by the set size."""
    node_set = _check_node_set(graph, nodes)
    return layer_count(graph, node_set, layer) / len(node_set)


def layer_report(
    graph: MultilayerGraph,
    nodes: Iterable[int],
    query: ExclusionQuery | None = None,
) -> dict:
    """Per-layer induced counts plus raw and signed densities of a node set.

    The signed density weighs excluded layers at -W (the density they carry
    in the rewritten graph); without a query it equals the raw density.
    """
    node_set = _check_node_set(graph, nodes)
    counts = dict.fromkeys(graph.layers, 0)  # edges of each layer inside the set
    sizes = dict.fromkeys(graph.layers, 0)  # edges of each layer
    for u, v, layer in graph.edges:
        sizes[layer] += 1
        if u in node_set and v in node_set:
            counts[layer] += 1
    penalty = 0.0
    excluded: frozenset = frozenset()
    if query is not None:
        excluded = query.excluded
        penalty = float(query.w) if query.mode == "soft" else float(_hard_w(sizes, excluded))
    report = {}
    for layer in sorted(graph.layers, key=str):
        count = counts[layer]
        raw = count / len(node_set)
        signed = -penalty * raw if (layer in excluded and count) else raw
        report[layer] = {"count": count, "density": raw, "signed_density": signed}
    return report
