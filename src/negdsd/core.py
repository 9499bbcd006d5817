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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import (
    BadParametersError,
    EmptySetError,
    NegativeMagnitudeError,
    UnknownNodeError,
    ZeroDenominatorError,
)

TIE_TOLERANCE = 1e-12


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

    Construct through :func:`build_signed_graph`; instances must not be
    mutated after construction, which makes them safe to share across
    threads.
    """

    __slots__ = ("n", "edges", "total_pos", "total_neg", "_deg_pos", "_deg_neg", "_incidence")

    def __init__(self, n: int, edges: list[SignedEdge]):
        self.n = n
        self.edges = edges
        deg_pos = [0.0] * n
        deg_neg = [0.0] * n
        incidence: list[list[tuple[int, float, float]]] = [[] for _ in range(n)]
        total_pos = 0.0
        total_neg = 0.0
        for e in edges:
            total_pos += e.wpos
            total_neg += e.wneg
            # Loops fall through both updates, counting twice toward degrees.
            deg_pos[e.u] += e.wpos
            deg_neg[e.u] += e.wneg
            deg_pos[e.v] += e.wpos
            deg_neg[e.v] += e.wneg
            incidence[e.u].append((e.v, e.wpos, e.wneg))
            if e.u != e.v:
                incidence[e.v].append((e.u, e.wpos, e.wneg))
        _check_total_weight(total_pos)
        _check_total_weight(total_neg)
        self.total_pos = total_pos
        self.total_neg = total_neg
        self._deg_pos = deg_pos
        self._deg_neg = deg_neg
        self._incidence = incidence

    @property
    def m(self) -> int:
        """Number of collapsed edges."""
        return len(self.edges)

    def positive_degree(self, u: int) -> float:
        return self._deg_pos[u]

    def negative_degree(self, u: int) -> float:
        return self._deg_neg[u]

    def degree(self, u: int) -> float:
        """Total degree: positive minus negative, loops counted twice."""
        return self._deg_pos[u] - self._deg_neg[u]

    def positive_degrees(self) -> list[float]:
        return list(self._deg_pos)

    def negative_degrees(self) -> list[float]:
        return list(self._deg_neg)

    def incidence(self) -> list[list[tuple[int, float, float]]]:
        """Per-node list of (neighbor, wpos, wneg); loops appear once, do not mutate."""
        return self._incidence

    def net_weighted(self) -> "WeightedGraph":
        """Collapse each pair to its single net weight ``wpos - wneg``."""
        return WeightedGraph(self.n, [(e.u, e.v, e.wpos - e.wneg) for e in self.edges])

    def __repr__(self) -> str:
        return f"SignedGraph(n={self.n}, m={self.m})"


class WeightedGraph:
    """Undirected graph with one real weight per pair (may be negative).

    ``all_nonnegative`` records whether every weight is >= 0, which is the
    regime where exact max-flow solving applies.
    """

    __slots__ = ("n", "edges", "all_nonnegative")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, float]]):
        self.n = n
        self.edges = list(edges)
        self.all_nonnegative = all(w >= 0 for _, _, w in self.edges)

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, m={len(self.edges)}, all_nonnegative={self.all_nonnegative})"


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
            if not math.isfinite(getattr(self, name)):
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
        f_value = objective_f(graph, node_set, params) if params is not None else None
        return cls(node_set, density, wpos, wneg, exact, algorithm, f_value, c_used)


def build_signed_graph(
    raw_edges: Iterable[tuple[int, int, float, float]],
    n: int | None = None,
) -> SignedGraph:
    """Collapse raw (u, v, wpos, wneg) records into a :class:`SignedGraph`.

    Parallel records on the same unordered pair are summed componentwise.
    Node count defaults to ``max id + 1``; pass ``n`` to keep trailing
    isolated nodes.

    Raises :class:`NegativeMagnitudeError` if any magnitude is negative and
    :class:`BadParametersError` on non-integer ids, non-finite weights, or
    a weight total whose double overflows a float.
    """
    acc: dict[tuple[int, int], list[float]] = {}
    max_id = -1
    for u, v, wpos, wneg in raw_edges:
        if not isinstance(u, int) or not isinstance(v, int) or u < 0 or v < 0:
            raise BadParametersError(f"node ids must be nonnegative integers, got ({u!r}, {v!r})")
        if not (math.isfinite(wpos) and math.isfinite(wneg)):
            raise BadParametersError(f"edge ({u}, {v}) has non-finite weight")
        if wpos < 0 or wneg < 0:
            raise NegativeMagnitudeError(
                f"edge ({u}, {v}) has negative magnitude ({wpos}, {wneg}); "
                "encode sign by choosing the field, not the value"
            )
        if u > max_id:
            max_id = u
        if v > max_id:
            max_id = v
        key = (u, v) if u <= v else (v, u)
        slot = acc.get(key)
        if slot is None:
            acc[key] = [float(wpos), float(wneg)]
        else:
            slot[0] += wpos
            slot[1] += wneg
    if n is None:
        n = max_id + 1
    elif n < max_id + 1:
        raise UnknownNodeError(f"edge references node {max_id} but n={n}")
    edges = [SignedEdge(u, v, wp, wn) for (u, v), (wp, wn) in acc.items()]
    return SignedGraph(n, edges)


def _check_total_weight(total: float) -> None:
    """Reject a total whose double overflows: it bounds every degree and induced weight."""
    if not math.isfinite(2 * total):
        raise BadParametersError(f"total edge weight {total} is too large for a float")


def _check_node_set(graph, nodes: Iterable[int]) -> frozenset[int]:
    """Nonempty frozenset of valid ids of any graph type; reads only ``graph.n``."""
    node_set = frozenset(nodes)
    if not node_set:
        raise EmptySetError("node set must be nonempty")
    for v in node_set:
        if not isinstance(v, int) or v < 0 or v >= graph.n:
            raise UnknownNodeError(f"node {v!r} not in 0..{graph.n - 1}")
    return node_set


def induced_weights(graph: SignedGraph, nodes: Iterable[int]) -> tuple[float, float, float]:
    """Total (wpos, wneg, net density) induced by a nonempty node set.

    An edge is induced when both endpoints lie in the set; induced loops
    contribute their weight once.
    """
    node_set = _check_node_set(graph, nodes)
    wpos = 0.0
    wneg = 0.0
    for e in graph.edges:
        if e.u in node_set and e.v in node_set:
            wpos += e.wpos
            wneg += e.wneg
    return wpos, wneg, (wpos - wneg) / len(node_set)


def objective_f(graph: SignedGraph, nodes: Iterable[int], params: ObjectiveParams) -> float:
    """Ratio objective (wpos(S) + l1|S|) / (rt*wneg(S) + l2|S|); always >= 0."""
    node_set = _check_node_set(graph, nodes)
    wpos, wneg, _ = induced_weights(graph, node_set)
    k = len(node_set)
    return (wpos + params.lambda1 * k) / (params.risk_tolerance * wneg + params.lambda2 * k)


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
    factor = q * risk_tolerance
    return WeightedGraph(graph.n, [(e.u, e.v, e.wpos - factor * e.wneg) for e in graph.edges])
