"""Greedy peeling: repeatedly drop the lowest-scoring node, keep the best prefix.

The score of a node v in the surviving subgraph H is
``c * posdeg_H(v) - negdeg_H(v)``.  With ``c == 1`` this is the plain total
degree; larger ``c`` protects nodes with high positive degree from being
peeled early, smaller ``c`` drives out nodes whose positive and negative
degrees roughly cancel.  Because single values of ``c`` can each fail on
adversarial inputs, :func:`c_sweep` runs a list of values and keeps the best
output.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace

from .core import (
    DsdResult,
    ObjectiveParams,
    SignedGraph,
    TIE_TOLERANCE,
    _check_objective_range,
)
from .errors import (
    BadParametersError,
    EmptyCListError,
    EmptySetError,
    NonPositiveCError,
)

DEFAULT_C_LIST = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 10.0)

_MODES = ("net_density", "objective")


def _check_c(c: float) -> None:
    if not 0 < c < math.inf:  # NaN fails too
        raise NonPositiveCError(f"c must be finite and > 0, got {c}")


@dataclass(frozen=True, slots=True)
class PeelOrder:
    """Removal order of a peel; prefix i is the last i surviving nodes.

    ``removal_sequence[0]`` is the first node removed; ``score_at_removal``
    is aligned with it and records each node's score at the moment it left.
    """

    removal_sequence: list[int]
    score_at_removal: list[float]


@dataclass(frozen=True, slots=True)
class PeelScoring:
    """How prefixes are evaluated and which score multiplier produced them.

    ``mode`` is ``"net_density"`` (net induced weight over size) or
    ``"objective"`` (the ratio objective, which requires ``params``).
    ``c == 1`` reproduces the plain minimum-degree peel exactly.
    """

    mode: str = "net_density"
    c: float = 1.0
    params: ObjectiveParams | None = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise BadParametersError(f"mode must be one of {_MODES}, got {self.mode!r}")
        _check_c(self.c)
        if self.mode == "objective" and self.params is None:
            raise BadParametersError("objective mode needs ObjectiveParams")


def peel_order(graph: SignedGraph, c: float = 1.0) -> PeelOrder:
    """Peel nodes by ascending ``c*posdeg - negdeg``, ties to the smallest id.

    Deterministic for a fixed (graph, c).  Runs in O((n + m) log n) using a
    heap with lazy invalidation: every score change pushes a fresh entry and
    stale entries are skipped on pop.
    """
    _check_c(c)
    n = graph.n
    if n == 0:
        raise EmptySetError("cannot peel an empty graph")
    pos = graph.positive_degrees()
    neg = graph.negative_degrees()
    score = [c * pos[v] - neg[v] for v in range(n)]
    heap = [(score[v], v) for v in range(n)]
    heapq.heapify(heap)
    alive = [True] * n
    incidence = graph.incidence()
    sequence: list[int] = []
    scores_out: list[float] = []
    for _ in range(n):
        while True:
            s, v = heapq.heappop(heap)
            if alive[v] and s == score[v]:
                break
        alive[v] = False
        sequence.append(v)
        scores_out.append(s)
        for u, wpos, wneg in incidence[v]:
            if u == v or not alive[u]:
                continue
            pos[u] -= wpos
            neg[u] -= wneg
            score[u] = c * pos[u] - neg[u]
            heapq.heappush(heap, (score[u], u))
    return PeelOrder(sequence, scores_out)


def _prefix_value(wpos: float, wneg: float, size: int, scoring: PeelScoring) -> float:
    if scoring.mode == "net_density":
        return (wpos - wneg) / size
    p = scoring.params
    return (wpos + p.lambda1 * size) / (p.risk_tolerance * wneg + p.lambda2 * size)


def best_prefix(graph: SignedGraph, order: PeelOrder, scoring: PeelScoring) -> DsdResult:
    """Evaluate every prefix of a peel in one pass and return the best one.

    Ties within ``TIE_TOLERANCE`` go to the smallest prefix (smallest set).
    The scan walks the order backwards and adds each node's edges to the
    nodes peeled after it, so the whole scan is O(n + m) and the induced
    weights are sums of nonnegative terms: subtracting from the totals
    instead can cancel them to a negative weight and a zero denominator.
    """
    n = graph.n
    sequence = order.removal_sequence
    if len(sequence) != n or set(sequence) != set(range(n)):
        raise BadParametersError("order is not a permutation of this graph's nodes")
    if scoring.mode == "objective":
        _check_objective_range(graph, scoring.params)
    position = [0] * n
    for i, v in enumerate(sequence):
        position[v] = i
    incidence = graph.incidence()
    wpos = wneg = 0.0
    values = [0.0] * n  # values[i] = score of the prefix with i+1 nodes
    for idx, v in zip(range(n - 1, -1, -1), reversed(sequence)):
        for u, ew_pos, ew_neg in incidence[v]:
            if u == v or position[u] > idx:
                wpos += ew_pos
                wneg += ew_neg
        values[n - idx - 1] = _prefix_value(wpos, wneg, n - idx, scoring)
    top = max(values)
    best_size = next(i + 1 for i, value in enumerate(values) if value >= top - TIE_TOLERANCE)
    nodes = sequence[n - best_size :]
    return DsdResult.evaluate(
        graph,
        nodes,
        algorithm="peel",
        exact=False,
        params=scoring.params,
        c_used=scoring.c,
    )


def c_sweep(
    graph: SignedGraph,
    c_list: "list[float] | tuple[float, ...]" = DEFAULT_C_LIST,
    scoring: PeelScoring | None = None,
) -> DsdResult:
    """Run the peel for every multiplier in ``c_list`` and keep the best output.

    Results are compared under the scoring mode (net density or objective
    value); ties within ``TIE_TOLERANCE`` resolve to the smaller multiplier.
    Runs for distinct multipliers are independent reads of the shared graph;
    they execute sequentially here.
    """
    if scoring is None:
        scoring = PeelScoring()
    if not c_list:
        raise EmptyCListError("c_list must contain at least one value")
    best: DsdResult | None = None
    best_value = 0.0
    best_c = 0.0
    for c in c_list:
        order = peel_order(graph, c)
        result = best_prefix(graph, order, replace(scoring, c=c))
        value = result.f_value if scoring.mode == "objective" else result.net_density
        if (
            best is None
            or value > best_value + TIE_TOLERANCE
            or (value >= best_value - TIE_TOLERANCE and c < best_c)
        ):
            best, best_value, best_c = result, value, c
    return replace(best, algorithm="c_sweep")
