"""Independent answer checks: numpy and networkx only, never ``negdsd``.

Every check recomputes from the generated edge arrays and returns a list of
failure messages; an empty list means the answer passed.  Optimality claims
are certified with one minimum cut at the claimed value plus a margin, on
the subgraph left after discarding nodes that cannot belong to any set
beating that value.
"""

from __future__ import annotations

import math
from fractions import Fraction

import networkx as nx
import numpy as np

REL_TOL = 1e-9


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def node_mask(n: int, nodes) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[np.asarray(list(nodes), dtype=np.int64)] = True
    return mask


def induced(u: np.ndarray, v: np.ndarray, weights: list[np.ndarray], mask: np.ndarray) -> list[float]:
    """Sum of each weight array over records with both endpoints in the mask."""
    both = mask[u] & mask[v]
    return [float(w[both].sum()) for w in weights]


def objective(wpos: float, wneg: float, size: int, lambda1: float, lambda2: float, rt: float) -> float:
    return (wpos + lambda1 * size) / (rt * wneg + lambda2 * size)


def check_values(
    edges, nodes, reported: dict, params: tuple[float, float, float] | None = None
) -> tuple[list[str], float, float, float | None]:
    """Compare a reported result's induced weights, density and ``f_value``.

    ``edges`` has ``n``, ``u``, ``v``, ``wpos`` and ``wneg`` arrays;
    ``reported`` has ``size``, ``wpos_total``, ``wneg_total``,
    ``net_density`` and ``f_value``.  Returns (failures, wpos, wneg, f).
    """
    nodes = list(nodes)
    failures = []
    if not nodes:
        return ["empty node set"], 0.0, 0.0, None
    if min(nodes) < 0 or max(nodes) >= edges.n or len(set(nodes)) != len(nodes):
        return ["node ids out of range or repeated"], 0.0, 0.0, None
    k = len(nodes)
    wpos, wneg = induced(edges.u, edges.v, [edges.wpos, edges.wneg], node_mask(edges.n, nodes))
    if reported["size"] != k:
        failures.append(f"size {reported['size']} != {k}")
    for key, want in (("wpos_total", wpos), ("wneg_total", wneg), ("net_density", (wpos - wneg) / k)):
        if not close(reported[key], want):
            failures.append(f"{key} {reported[key]!r} != recomputed {want!r}")
    f = None
    if params is not None:
        f = objective(wpos, wneg, k, *params)
        if reported["f_value"] is None or not close(reported["f_value"], f):
            failures.append(f"f_value {reported['f_value']!r} != recomputed {f!r}")
    return failures, wpos, wneg, f


def core_survivors(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray, g: float) -> np.ndarray:
    """Nodes that may lie in a set of density above ``g`` (w >= 0).

    In a densest set S* every node carries at least the density of S*
    inside S* (else dropping it would raise the density), so repeatedly
    discarding nodes whose remaining weight is below ``g`` never discards a
    node of any set denser than ``g``.  The comparison keeps a float margin,
    so rounding can only keep extra nodes.
    """
    alive = np.ones(n, dtype=bool)
    loop = u == v
    limit = g - 1e-9 * max(1.0, abs(g))
    while True:
        live = alive[u] & alive[v]
        weight = np.bincount(u[live], w[live], minlength=n)
        weight += np.bincount(v[live & ~loop], w[live & ~loop], minlength=n)
        drop = alive & (weight < limit)
        if not drop.any():
            return np.flatnonzero(alive)
        alive &= ~drop


def no_denser_than(n: int, u: np.ndarray, v: np.ndarray, w: list[Fraction], g: Fraction) -> bool:
    """True when no nonempty node set has w(S)/|S| > g; weights must be >= 0.

    Builds the Goldberg network (source to v at v's weighted degree, v to
    sink at 2g, each pair both ways at its weight) on the survivors of
    :func:`core_survivors`, scaled to integers.  Its minimum cut equals
    2*W - 2*max_S (w(S) - g|S|), so a cut of exactly 2*W certifies the claim.
    """
    wf = np.array([float(x) for x in w], dtype=np.float64)
    keep = core_survivors(n, u, v, wf, float(g))
    if keep.shape[0] == 0:
        return True
    inside = np.zeros(n, dtype=bool)
    inside[keep] = True
    live = np.flatnonzero(inside[u] & inside[v])
    scale = g.denominator
    for i in live.tolist():
        scale = math.lcm(scale, w[i].denominator)
    two_g = int(2 * g * scale)
    net = nx.DiGraph()
    degree: dict[int, int] = {}
    pair: dict[tuple[int, int], int] = {}
    total = 0
    for i in live.tolist():
        a, b, x = int(u[i]), int(v[i]), int(w[i] * scale)
        total += x
        degree[a] = degree.get(a, 0) + x
        degree[b] = degree.get(b, 0) + x  # a loop counts twice
        if a != b:
            key = (min(a, b), max(a, b))
            pair[key] = pair.get(key, 0) + x
    for node in keep.tolist():
        net.add_edge("s", node, capacity=degree.get(node, 0))
        net.add_edge(node, "t", capacity=two_g)
    for (a, b), x in pair.items():
        net.add_edge(a, b, capacity=x)
        net.add_edge(b, a, capacity=x)
    return nx.minimum_cut_value(net, "s", "t") == 2 * total


def certify_densest(edges, nodes) -> list[str]:
    """Certify that ``nodes`` has the largest density; integer weights >= 0.

    Two densities a/k and b/l over at most n nodes differ by at least
    1/(k*l) >= 1/n**2, so no set beating the claim is certified by showing
    none beats it by more than 1/(n(n+1)).
    """
    if np.any(edges.wneg != 0) or np.any(edges.wpos != np.round(edges.wpos)):
        return ["densest-set certificate needs nonnegative integer weights"]
    mask = node_mask(edges.n, nodes)
    both = mask[edges.u] & mask[edges.v]
    rho = Fraction(int(edges.wpos[both].sum()), int(mask.sum()))
    g = rho + Fraction(1, edges.n * (edges.n + 1))
    weights = [Fraction(int(x)) for x in edges.wpos.tolist()]
    if not no_denser_than(edges.n, edges.u, edges.v, weights, g):
        return [f"a denser set than {float(rho)!r} exists"]
    return []


def certify_objective(edges, f_value: float, params: tuple[float, float, float]) -> list[str]:
    """Certify that no set beats ``f_value`` by more than 1/(n(n+1)).

    At q = f_value + 1/(n(n+1)), f(S) > q exactly when the reweighted
    density (wpos - q*rt*wneg)(S)/|S| exceeds q*lambda2 - lambda1.  That
    is one cut when every reweighted edge is nonnegative; otherwise the
    exact claim cannot be certified and counts as a failure.
    """
    lambda1, lambda2, rt = (Fraction(x) for x in params)
    q = Fraction(f_value) + Fraction(1, edges.n * (edges.n + 1))
    factor = q * rt
    weights = [Fraction(p) - factor * Fraction(m) for p, m in zip(edges.wpos.tolist(), edges.wneg.tolist())]
    if min(weights) < 0:
        return [f"exact claimed at f={f_value!r}, but the reweighted graph has negative edges"]
    g = q * lambda2 - lambda1
    if g < 0 or not no_denser_than(edges.n, edges.u, edges.v, weights, g):
        return [f"a set with objective above {float(q)!r} exists"]
    return []


def check_no_excluded(u: np.ndarray, v: np.ndarray, excluded: np.ndarray, n: int, nodes) -> list[str]:
    """Hard exclusion: the answer must induce no record of an excluded layer."""
    mask = node_mask(n, nodes)
    count = int((mask[u] & mask[v] & excluded).sum())
    return [f"hard exclusion induces {count} excluded edges"] if count else []


def check_risk_order(rts: list[float], avg_risks: list[float]) -> list[str]:
    """Average risk of the answer must not rise as the risk tolerance rises."""
    pairs = sorted(zip(rts, avg_risks))
    return [
        f"avg_risk rises from {r0!r} at rt={t0} to {r1!r} at rt={t1}"
        for (t0, r0), (t1, r1) in zip(pairs, pairs[1:])
        if r1 > r0 * (1 + REL_TOL) + REL_TOL
    ]
