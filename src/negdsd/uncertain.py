"""Uncertain graphs: edges carry an expected reward and a variance.

Every downstream computation consumes only the first two moments of an
edge's reward distribution, so that is all the representation keeps.  The
classic on/off edge model (reward w with probability p, else 0) converts via
:func:`bernoulli_moments`.  Converting an uncertain graph to a signed graph
hands its collapsed columns over as they are, reward as the positive weight
and variance as the negative one; the risk-tolerance factor is deliberately
*not* baked in, so one conversion serves every tolerance sweep.  The peels
are shared across such a sweep too: the signed graph keeps the removal
order of each multiplier that :func:`~negdsd.peeling.c_sweep` peels on it,
so sweeping it at a second tolerance only scores prefixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import starmap
from typing import Iterable, Iterator

import numpy as np

from .core import EdgeColumns, SignedGraph, _check_node_set, _check_total_weight, _collapse, _induced_edges, _rows
from .core import _sequential_sum
from .core import build_signed_graph  # noqa: F401  re-exported; callers may look it up here
from .errors import BadParametersError, EmptyFilmographyError, OutOfRangeError

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
    """Immutable collapsed uncertain edges over ids 0..n-1, stored as columns.

    Edge ``e`` is ``(u[e], v[e], mu[e], sigma2[e])`` with ``u[e] <= v[e]``,
    in the layout of :class:`~negdsd.core.SignedGraph`, totals checked as
    there; ``edges`` is a tuple of :class:`UncertainEdge` built on first access.
    """

    __slots__ = ("n", "u", "v", "mu", "sigma2", "_edges")

    def __init__(self, n: int, u: np.ndarray, v: np.ndarray, mu: np.ndarray, sigma2: np.ndarray):
        self.n, self.u, self.v, self.mu, self.sigma2 = n, u, v, mu, sigma2
        for array in (u, v, mu, sigma2):
            array.flags.writeable = False
        for moments in (mu, sigma2):
            _check_total_weight(moments)
        self._edges = None

    @property
    def edges(self) -> tuple[UncertainEdge, ...]:
        if self._edges is None:
            self._edges = tuple(starmap(UncertainEdge, self.rows()))
        return self._edges

    def rows(self) -> Iterator[tuple[int, int, float, float]]:
        """(u, v, mu, sigma2) of each edge as Python scalars, in edge order."""
        return _rows(self.u, self.v, self.mu, self.sigma2)

    def __repr__(self) -> str:
        return f"UncertainGraph(n={self.n}, m={self.u.shape[0]})"


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
    raw_edges: Iterable[tuple[int, int, float, float]] | EdgeColumns,
    n: int | None = None,
) -> UncertainGraph:
    """Collapse raw (u, v, mu, sigma2) records, or :class:`~negdsd.core.EdgeColumns`; parallel moments add.

    Summing moments treats parallel records as independent rewards on the
    same pair.  Collapses like :func:`~negdsd.core.build_signed_graph`.
    Raises :class:`BadParametersError` on a moment that is not a finite real
    number or sums beyond a float, and :class:`OutOfRangeError` on a
    negative one; the first bad record decides which.
    """
    return UncertainGraph(*_collapse(raw_edges, n, _check_moments))


def _check_moments(u, v, mu, sigma2) -> None:
    if not (math.isfinite(mu) and math.isfinite(sigma2)):
        raise BadParametersError(f"edge ({u}, {v}) has non-finite moments ({mu}, {sigma2})")
    if mu < 0 or sigma2 < 0:
        raise OutOfRangeError(f"edge ({u}, {v}) needs mu >= 0 and sigma2 >= 0, got ({mu}, {sigma2})")


def bernoulli_graph(
    raw_edges: Iterable[tuple[int, int, float, float]] | EdgeColumns,
    n: int | None = None,
) -> UncertainGraph:
    """Build an uncertain graph from (u, v, p, w) on/off edges.

    :class:`~negdsd.core.EdgeColumns` (``a`` = p, ``b`` = w) convert as
    columns, to the same moments as :func:`bernoulli_moments`; when a
    probability or reward is out of range, the records are walked in order,
    so the first bad one raises.
    """
    if not isinstance(raw_edges, EdgeColumns):
        return build_uncertain_graph(((u, v, *bernoulli_moments(p, w)) for u, v, p, w in raw_edges), n=n)
    p, w = raw_edges.a, raw_edges.b
    if not ((0 < p) & (p <= 1) & (w >= 0)).all():
        for _, _, p_e, w_e in raw_edges:
            bernoulli_moments(p_e, w_e)
    with np.errstate(over="ignore", invalid="ignore"):  # as with floats, build_uncertain_graph rejects the result
        moments = EdgeColumns(raw_edges.u, raw_edges.v, w * p, w * w * p * (1.0 - p))
    return build_uncertain_graph(moments, n=n)


def uncertain_to_signed(graph: UncertainGraph) -> SignedGraph:
    """Map each edge to (wpos=mu, wneg=sigma2) for the signed-graph solvers, sharing the columns."""
    return SignedGraph(graph.n, graph.u, graph.v, graph.mu, graph.sigma2)


def risk_profile(graph: UncertainGraph, nodes: Iterable[int]) -> RiskReport:
    """Average induced expected reward and risk of a nonempty node set."""
    node_set = _check_node_set(graph, nodes)
    induced = _induced_edges(graph, node_set)
    size = len(node_set)
    mu, risk = _sequential_sum(graph.mu[induced]), _sequential_sum(graph.sigma2[induced])
    return RiskReport(mu / size, risk / size, size)


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
