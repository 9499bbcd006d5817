"""Deterministic generators for adversarial signed-graph instances.

These are the constructions that separate the solvers: an instance where
plain minimum-degree peeling discards the hub of the dense core first, a
two-component instance where only score multipliers below 1 help, and an
instance where shifting all weights nonnegative picks a subgraph whose true
density is negative.
"""

from __future__ import annotations

import random

import numpy as np

from .core import DsdResult, SignedGraph, _is_finite_real, build_signed_graph
from .errors import BadParametersError
from .exact import exact_dsd


def gen_bad_peeling(n: int, eps: float) -> SignedGraph:
    """Hub-and-triangle trap for plain peeling, on n+4 nodes.

    Node ids: triangle {0, 1, 2} with pairwise weight eps, hub 3 attached to
    the triangle with positive weight W = (n - 4) / 3, and a chain of n
    filler nodes 4..n+3 whose path edges and hub links all carry negative
    weight 1.  The hub's total degree 3W - n is the unique minimum, so the
    c=1 peel removes it first and ends up with the eps-triangle, while the
    true densest subgraph is the triangle plus hub at (3W + 3*eps) / 4.

    Requires n >= 7 with n % 3 == 1 (so W is integral) and 0 < eps < 1.
    """
    if n < 7 or n % 3 != 1:
        raise BadParametersError(f"n must be >= 7 with n % 3 == 1, got {n}")
    if not 0 < eps < 1:
        raise BadParametersError(f"eps must be in (0, 1), got {eps}")
    w_hub = float((n - 4) // 3)
    raw: list[tuple[int, int, float, float]] = [
        (0, 1, eps, 0.0),
        (0, 2, eps, 0.0),
        (1, 2, eps, 0.0),
        (3, 0, w_hub, 0.0),
        (3, 1, w_hub, 0.0),
        (3, 2, w_hub, 0.0),
    ]
    first_filler = 4
    for i in range(n - 1):
        raw.append((first_filler + i, first_filler + i + 1, 0.0, 1.0))
    for i in range(n):
        raw.append((3, first_filler + i, 0.0, 1.0))
    return build_signed_graph(raw, n=n + 4)


def gen_two_component(r: int, n: int, seed: int = 0) -> SignedGraph:
    """A +1-weight r-clique next to a noisy component of n nodes.

    In the second component every unordered pair independently receives a
    +1 edge with probability 1/2 and, independently, a -1 edge with
    probability 1/2 (both at once collapse to wpos=1, wneg=1).  Clique nodes
    have total degree r-1; noise nodes have expected degree 0, yet some of
    them show positive total degree on most draws, which is the regime where
    multipliers below 1 improve the peel.  Reproducible for a fixed seed.
    """
    if r < 2:
        raise BadParametersError(f"r must be >= 2, got {r}")
    if n < 0:
        raise BadParametersError(f"n must be >= 0, got {n}")
    rng = random.Random(seed)
    raw: list[tuple[int, int, float, float]] = [
        (i, j, 1.0, 0.0) for i in range(r) for j in range(i + 1, r)
    ]
    for i in range(r, r + n):
        for j in range(i + 1, r + n):
            wpos = 1.0 if rng.random() < 0.5 else 0.0
            wneg = 1.0 if rng.random() < 0.5 else 0.0
            if wpos or wneg:
                raw.append((i, j, wpos, wneg))
    return build_signed_graph(raw, n=r + n)


def gen_shift_failure(n: int, delta: float, eps: float) -> SignedGraph:
    """Instance where the shift-to-nonnegative baseline picks a bad clique.

    Three components on n+5 nodes: a unit triangle {0, 1, 2}, an isolated
    edge {3, 4} with negative weight delta, and an n-clique 5..n+4 whose
    every edge has negative weight eps.  The true densest subgraph is the
    triangle, but after shifting by delta the clique's shifted density
    (n-1)*(delta-eps)/2 exceeds the triangle's 1+delta, so the baseline
    returns the clique whose true density is negative.

    Requires n >= 3, finite delta > 0, 0 < eps < delta, and the failure inequality
    (n-1)*(delta-eps)/2 > 1 + delta.
    """
    if n < 3:
        raise BadParametersError(f"n must be >= 3, got {n}")
    for name, value in (("delta", delta), ("eps", eps)):
        if not _is_finite_real(value):
            raise BadParametersError(f"{name} must be finite, got {value}")
    if delta <= 0:
        raise BadParametersError(f"delta must be > 0, got {delta}")
    if not 0 < eps < delta:
        raise BadParametersError(f"eps must satisfy 0 < eps < delta, got {eps}")
    if (n - 1) * (delta - eps) / 2 <= 1 + delta:
        raise BadParametersError(
            "parameters do not trip the baseline: need (n-1)*(delta-eps)/2 > 1 + delta"
        )
    raw: list[tuple[int, int, float, float]] = [
        (0, 1, 1.0, 0.0),
        (0, 2, 1.0, 0.0),
        (1, 2, 1.0, 0.0),
        (3, 4, 0.0, delta),
    ]
    for i in range(5, n + 5):
        for j in range(i + 1, n + 5):
            raw.append((i, j, 0.0, eps))
    return build_signed_graph(raw, n=n + 5)


def shift_baseline(graph: SignedGraph) -> DsdResult:
    """Shift all net weights nonnegative, solve exactly, re-score honestly.

    The shift is by the most negative net pair weight (no-op when all nets
    are already nonnegative).  The returned densities are the *true* ones of
    the winning set on the unshifted graph; ``exact`` survives only when no
    shift happened.
    """
    nets = graph.wpos - graph.wneg
    lowest = float(nets.min(initial=0.0))
    shift = -lowest if lowest < 0 else 0.0
    shifted = nets + shift
    solved = exact_dsd(SignedGraph(graph.n, graph.u, graph.v, shifted, np.zeros_like(shifted)))
    return DsdResult.evaluate(graph, solved.nodes, "shift_baseline", exact=solved.exact and shift == 0.0)
