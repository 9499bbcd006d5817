"""Uncertain graphs: edges carry an expected reward and a variance.

Every downstream computation consumes only the first two moments of an
edge's reward distribution, so that is all the representation keeps.  The
classic on/off edge model (reward w with probability p, else 0) converts via
:func:`bernoulli_moments`, whose rules :func:`bernoulli_graph` applies to
columns and records alike.  Risk-averse DSD on an uncertain graph is DSD on
a signed graph, reward as the positive weight and variance as the negative
one, so an :class:`UncertainGraph` is a :class:`~negdsd.core.SignedGraph`
and every solver takes it as it is.  The risk-tolerance factor is
deliberately *not* baked in, so one graph serves every tolerance sweep.  The
peels are shared across such a sweep too: the graph keeps the removal order
of each multiplier that :func:`~negdsd.peeling.c_sweep` peels on it, so
sweeping it at a second tolerance only scores prefixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import EdgeColumns, SignedGraph, _check_node_set, _check_records, _collapse_columns, _intake, induced_weights
from .core import _real_float, build_signed_graph  # noqa: F401  the second is re-exported; callers may look it up here
from .errors import BadParametersError, EmptyFilmographyError, OutOfRangeError

TOP_COSTARRED_MOVIES = 5


@dataclass(frozen=True, slots=True)
class RiskReport:
    """Average induced reward and risk of a node set, plus its size."""

    avg_expected_reward: float
    avg_risk: float
    size: int


class UncertainGraph(SignedGraph):
    """A :class:`~negdsd.core.SignedGraph` of collapsed uncertain edges: ``mu``
    is ``wpos`` and ``sigma2`` is ``wneg``.

    Edge ``e`` is ``(u[e], v[e], mu[e], sigma2[e])`` with ``u[e] <= v[e]``.
    """

    __slots__ = ()
    mu = property(lambda self: self.wpos, doc="Expected reward of each edge: ``wpos``.")
    sigma2 = property(lambda self: self.wneg, doc="Variance of each edge's reward: ``wneg``.")


def bernoulli_moments(p: float, w: float) -> tuple[float, float]:
    """Mean and variance of a reward that is w with probability p, else 0.

    mu = w*p and sigma2 = w**2 * p * (1 - p), the unique variance of a
    two-point {0, w} distribution, over ``float(p)`` and ``float(w)``.
    Raises the error :func:`bernoulli_graph` raises on a record of this p and w.
    """
    return _bernoulli_moments("bernoulli_moments got", p, w)


def _bernoulli_moments(subject: str, p, w) -> tuple[float, float]:
    """:func:`bernoulli_moments`, its errors led by ``subject``."""
    p, w = _real_float(p, f"{subject} a probability"), _real_float(w, f"{subject} a reward")
    if not 0 < p <= 1:
        raise OutOfRangeError(f"probability must be in (0, 1], got {p}")
    if w < 0:
        raise OutOfRangeError(f"reward must be >= 0, got {w}")
    mu, sigma2 = w * p, w * w * p * (1.0 - p)
    if not (math.isfinite(mu) and math.isfinite(sigma2)):
        raise BadParametersError(f"{subject} non-finite moments ({mu}, {sigma2})")
    return mu, sigma2


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
    return UncertainGraph(*_collapse_columns(*_intake(raw_edges, n, _check_moments)))


def _check_moments(u, v, mu, sigma2) -> None:
    if not (math.isfinite(mu) and math.isfinite(sigma2)):
        raise BadParametersError(f"edge ({u}, {v}) has non-finite moments ({mu}, {sigma2})")
    if mu < 0 or sigma2 < 0:
        raise OutOfRangeError(f"edge ({u}, {v}) needs mu >= 0 and sigma2 >= 0, got ({mu}, {sigma2})")


def bernoulli_graph(
    raw_edges: Iterable[tuple[int, int, float, float]] | EdgeColumns,
    n: int | None = None,
) -> UncertainGraph:
    """Build an uncertain graph from (u, v, p, w) on/off edges, or :class:`~negdsd.core.EdgeColumns` (``a`` = p, ``b`` = w).

    Records become columns as in :func:`~negdsd.core.build_signed_graph`,
    and the moments are those of :func:`bernoulli_moments`, taken over the
    columns.  When a probability or reward is out of range, or a moment is
    not finite, the records are walked in order, so the first bad one
    raises.
    """
    n, u, v, p, w = _intake(raw_edges, n, _check_bernoulli)
    if not ((0 < p) & (p <= 1)).all():
        _check_records(EdgeColumns(u, v, p, w), _check_bernoulli)
    with np.errstate(over="ignore", invalid="ignore"):  # as with floats, build_uncertain_graph rejects the result
        moments = EdgeColumns(u, v, w * p, w * w * p * (1.0 - p))
    return build_uncertain_graph(moments, n=n)


def _check_bernoulli(u, v, p, w) -> None:
    _bernoulli_moments(f"edge ({u}, {v}) has", p, w)


def uncertain_to_signed(graph: UncertainGraph) -> SignedGraph:
    """A plain :class:`~negdsd.core.SignedGraph` (wpos=mu, wneg=sigma2) sharing the columns."""
    return SignedGraph(graph.n, graph.u, graph.v, graph.mu, graph.sigma2)


def risk_profile(graph: UncertainGraph, nodes: Iterable[int]) -> RiskReport:
    """Average induced expected reward and risk of a nonempty node set."""
    node_set = _check_node_set(graph, nodes)
    mu, risk, _ = induced_weights(graph, node_set)
    size = len(node_set)
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
