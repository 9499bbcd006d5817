"""Uncertain graphs: edges carry an expected reward and a variance.

Every downstream computation consumes only the first two moments of an
edge's reward distribution, so that is all the representation keeps.  The
classic on/off edge model (reward w with probability p, else 0) converts via
:func:`bernoulli_moments`.  Converting an uncertain graph to a signed graph
maps reward to the positive weight and variance to the negative weight; the
risk-tolerance factor is deliberately *not* baked in here, so one conversion
serves every tolerance sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import SignedGraph, _check_node_set, build_signed_graph
from .errors import (
    BadParametersError,
    EmptyFilmographyError,
    OutOfRangeError,
    UnknownNodeError,
)

TOP_COSTARRED_MOVIES = 5


@dataclass(frozen=True, slots=True)
class UncertainEdge:
    """Collapsed uncertain edge: expected reward ``mu``, variance ``sigma2``."""

    u: int
    v: int
    mu: float
    sigma2: float


@dataclass(frozen=True, slots=True)
class BernoulliEdge:
    """Edge that pays ``w`` with probability ``p`` and 0 otherwise."""

    u: int
    v: int
    p: float
    w: float

    def __post_init__(self):
        if not 0 < self.p <= 1:
            raise OutOfRangeError(f"probability must be in (0, 1], got {self.p}")
        if self.w < 0:
            raise OutOfRangeError(f"reward must be >= 0, got {self.w}")


@dataclass(frozen=True, slots=True)
class RiskReport:
    """Average induced reward and risk of a node set, plus its size."""

    avg_expected_reward: float
    avg_risk: float
    size: int


class UncertainGraph:
    """Immutable collection of collapsed uncertain edges over ids 0..n-1."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: list[UncertainEdge]):
        self.n = n
        self.edges = edges

    def __repr__(self) -> str:
        return f"UncertainGraph(n={self.n}, m={len(self.edges)})"


def bernoulli_moments(p: float, w: float) -> tuple[float, float]:
    """Mean and variance of a reward that is w with probability p, else 0.

    mu = w*p and sigma2 = w**2 * p * (1 - p), the unique variance of a
    two-point {0, w} distribution.
    """
    if not 0 < p <= 1:
        raise OutOfRangeError(f"probability must be in (0, 1], got {p}")
    if w < 0:
        raise OutOfRangeError(f"reward must be >= 0, got {w}")
    return w * p, w * w * p * (1.0 - p)


def build_uncertain_graph(
    raw_edges: Iterable[tuple[int, int, float, float]],
    n: int | None = None,
) -> UncertainGraph:
    """Collapse raw (u, v, mu, sigma2) records; parallel moments add.

    Summing moments treats parallel records as independent rewards on the
    same pair.
    """
    acc: dict[tuple[int, int], list[float]] = {}
    max_id = -1
    for u, v, mu, sigma2 in raw_edges:
        if not isinstance(u, int) or not isinstance(v, int) or u < 0 or v < 0:
            raise BadParametersError(f"node ids must be nonnegative integers, got ({u!r}, {v!r})")
        if mu < 0 or sigma2 < 0:
            raise OutOfRangeError(f"edge ({u}, {v}) needs mu >= 0 and sigma2 >= 0, got ({mu}, {sigma2})")
        if u > max_id:
            max_id = u
        if v > max_id:
            max_id = v
        key = (u, v) if u <= v else (v, u)
        slot = acc.get(key)
        if slot is None:
            acc[key] = [float(mu), float(sigma2)]
        else:
            slot[0] += mu
            slot[1] += sigma2
    if n is None:
        n = max_id + 1
    elif n < max_id + 1:
        raise UnknownNodeError(f"edge references node {max_id} but n={n}")
    edges = [UncertainEdge(u, v, mu, s2) for (u, v), (mu, s2) in acc.items()]
    return UncertainGraph(n, edges)


def bernoulli_graph(
    raw_edges: Iterable[tuple[int, int, float, float]],
    n: int | None = None,
) -> UncertainGraph:
    """Build an uncertain graph from (u, v, p, w) on/off edges."""
    return build_uncertain_graph(
        ((u, v, *bernoulli_moments(p, w)) for u, v, p, w in raw_edges),
        n=n,
    )


def uncertain_to_signed(graph: UncertainGraph) -> SignedGraph:
    """Map each edge to (wpos=mu, wneg=sigma2) for the signed-graph solvers."""
    return build_signed_graph(
        [(e.u, e.v, e.mu, e.sigma2) for e in graph.edges],
        n=graph.n,
    )


def risk_profile(graph: UncertainGraph, nodes: Iterable[int]) -> RiskReport:
    """Average induced expected reward and risk of a nonempty node set."""
    node_set = _check_node_set(graph, nodes)
    mu_total = 0.0
    risk_total = 0.0
    for e in graph.edges:
        if e.u in node_set and e.v in node_set:
            mu_total += e.mu
            risk_total += e.sigma2
    size = len(node_set)
    return RiskReport(mu_total / size, risk_total / size, size)


def tmdb_edge(
    movies_u: Iterable[str],
    movies_v: Iterable[str],
    popularity: dict,
) -> tuple[float, float] | None:
    """Probability/reward pair for two actors from their filmographies.

    The probability is the Jaccard coefficient of the two movie sets; the
    reward is a discounted sum of the popularity scores of their top shared
    movies: with s0 >= s1 >= ... the k best co-starred scores
    (k capped at 5), the reward is sum(s_j / 2**j).  Returns None when the
    actors share no movie.  Popularity scores are expected in [1, 10].
    """
    set_u = set(movies_u)
    set_v = set(movies_v)
    union = set_u | set_v
    if not union:
        raise EmptyFilmographyError("both filmographies are empty")
    shared = set_u & set_v
    if not shared:
        return None
    p = len(shared) / len(union)
    scores = sorted((popularity[m] for m in shared), reverse=True)
    k = min(len(scores), TOP_COSTARRED_MOVIES)
    w = sum(scores[j] / 2**j for j in range(k))
    return p, w
