"""Seeded input generators for the benchmark, built on numpy alone.

Every generator takes the workload seed, so one seed always gives the same
inputs.  Endpoints are drawn with a power-law preference over a random node
ranking (skewed degrees) unless a generator says otherwise, and each graph
carries planted clusters whose values give the quality references.

Weights are dyadic rationals with small denominators (multiples of 1/64,
or products of such), so every sum of them is exact in binary floating
point: the checker can compare induced weights without worrying about
summation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WEIGHT_STEP = 64  # weights are integers divided by this
SKEW = 0.5  # endpoint preference ~ rank**-SKEW


@dataclass
class EdgeList:
    """Raw edge records over ids 0..n-1; parallel records are allowed."""

    n: int
    u: np.ndarray
    v: np.ndarray
    wpos: np.ndarray
    wneg: np.ndarray

    @property
    def m(self) -> int:
        return int(self.u.shape[0])

    def records(self) -> list[tuple[int, int, float, float]]:
        return list(zip(self.u.tolist(), self.v.tolist(), self.wpos.tolist(), self.wneg.tolist()))


def random_pairs(rng: np.random.Generator, n: int, m: int, skew: float = SKEW) -> tuple[np.ndarray, np.ndarray]:
    """``m`` loop-free endpoint pairs with power-law degree preference."""
    prefer = np.arange(1, n + 1, dtype=np.float64) ** -skew
    prefer /= prefer.sum()
    ranking = rng.permutation(n)
    u = np.empty(0, dtype=np.int64)
    v = np.empty(0, dtype=np.int64)
    while u.shape[0] < m:
        draw = m - u.shape[0] + m // 50 + 16
        cu = ranking[rng.choice(n, size=draw, p=prefer)]
        cv = ranking[rng.choice(n, size=draw, p=prefer)]
        keep = cu != cv
        u = np.concatenate([u, cu[keep]])
        v = np.concatenate([v, cv[keep]])
    return u[:m], v[:m]


def clique_pairs(nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All unordered pairs of distinct nodes."""
    iu, iv = np.triu_indices(nodes.shape[0], k=1)
    return nodes[iu], nodes[iv]


def planted_sets(rng: np.random.Generator, n: int, sizes: list[int]) -> list[np.ndarray]:
    """Disjoint random node sets of the given sizes."""
    pool = rng.permutation(n)[: sum(sizes)]
    return [np.sort(part) for part in np.split(pool, np.cumsum(sizes)[:-1])]


def background(u: np.ndarray, v: np.ndarray, n: int, sets: list[np.ndarray]) -> np.ndarray:
    """Mask of records not inside a planted set, which keeps the sets as designed."""
    owner = np.full(n, -1)
    for i, nodes in enumerate(sets):
        owner[nodes] = i
    return (owner[u] < 0) | (owner[u] != owner[v])


def dyadic(rng: np.random.Generator, low: float, high: float, size: int) -> np.ndarray:
    """Uniform multiples of 1/WEIGHT_STEP in [low, high]."""
    ints = rng.integers(round(low * WEIGHT_STEP), round(high * WEIGHT_STEP) + 1, size=size)
    return ints.astype(np.float64) / WEIGHT_STEP


@dataclass
class PeelInput:
    """Signed graph with string labels and one planted dense core."""

    edges: EdgeList
    labels: list[str]
    core: np.ndarray


def peel_input(seed: int, n: int, m: int, core_size: int) -> PeelInput:
    """Background edges with net weight in [-1, 3] plus a heavy planted core."""
    rng = np.random.default_rng([seed, 1])
    u, v = random_pairs(rng, n, m)
    net = dyadic(rng, -1.0, 3.0, m)
    (core,) = planted_sets(rng, n, [core_size])
    keep = background(u, v, n, [core])
    u, v, net = u[keep], v[keep], net[keep]
    cu, cv = clique_pairs(core)
    cpos = dyadic(rng, 2.0, 4.0, cu.shape[0])
    edges = EdgeList(
        n,
        np.concatenate([u, cu]),
        np.concatenate([v, cv]),
        np.concatenate([np.maximum(net, 0.0), cpos]),
        np.concatenate([np.maximum(-net, 0.0), np.zeros_like(cpos)]),
    )
    # Record order is shuffled so the planted core is not a contiguous block.
    order = rng.permutation(edges.m)
    edges = EdgeList(n, edges.u[order], edges.v[order], edges.wpos[order], edges.wneg[order])
    labels = [f"v{x:x}" for x in rng.permutation(n * 4)[:n].tolist()]
    return PeelInput(edges, labels, core)


def signed_text(edges: EdgeList, labels: list[str]) -> str:
    """Four-column ``u v wpos wneg`` text; dyadic weights print exactly."""
    lines = [
        f"{labels[a]} {labels[b]} {p!r} {q!r}"
        for a, b, p, q in zip(edges.u.tolist(), edges.v.tolist(), edges.wpos.tolist(), edges.wneg.tolist())
    ]
    return "\n".join(lines) + "\n"


@dataclass
class UncertainInput:
    """On/off edges ``(u, v, p, w)``; clusters[0] is risky, clusters[1] is safe."""

    n: int
    u: np.ndarray
    v: np.ndarray
    p: np.ndarray
    w: np.ndarray
    clusters: list[np.ndarray]

    def records(self) -> list[tuple[int, int, float, float]]:
        return list(zip(self.u.tolist(), self.v.tolist(), self.p.tolist(), self.w.tolist()))

    def moments(self) -> EdgeList:
        """Expected reward and variance per record, the benchmark's own conversion."""
        return EdgeList(self.n, self.u, self.v, self.w * self.p, self.w * self.w * self.p * (1.0 - self.p))


def uncertain_input(seed: int, n: int, m: int, risky: int, safe: int) -> UncertainInput:
    """Weak background plus a high-reward high-risk clique and a safe clique.

    Low risk tolerance favours the risky clique and high tolerance the safe
    one, so the risk of the winner falls as the tolerance rises.
    """
    rng = np.random.default_rng([seed, 2])
    u, v = random_pairs(rng, n, m)
    p = rng.integers(1, 20, size=m) / 64.0
    risky_nodes, safe_nodes = planted_sets(rng, n, [risky, safe])
    keep = background(u, v, n, [risky_nodes, safe_nodes])
    u, v, p = u[keep], v[keep], p[keep]
    w = np.ones(u.shape[0])
    ru, rv = clique_pairs(risky_nodes)
    su, sv = clique_pairs(safe_nodes)
    return UncertainInput(
        n,
        np.concatenate([u, ru, su]),
        np.concatenate([v, rv, sv]),
        np.concatenate([p, np.full(ru.shape[0], 58 / 64), np.full(su.shape[0], 61 / 64)]),
        np.concatenate([w, np.full(ru.shape[0], 5.0), np.ones(su.shape[0])]),
        [risky_nodes, safe_nodes],
    )


LAYERS = ("follow", "like", "block")


@dataclass
class MultilayerInput:
    """Layered multigraph; ``layer`` indexes ``LAYERS``.

    clusters[0] is dense in the allowed layers only; clusters[1] is denser
    but also carries many edges of the excluded layer.
    """

    n: int
    u: np.ndarray
    v: np.ndarray
    layer: np.ndarray
    clusters: list[np.ndarray]

    def records(self) -> list[tuple[int, int, str]]:
        names = [LAYERS[i] for i in self.layer.tolist()]
        return list(zip(self.u.tolist(), self.v.tolist(), names))


def multilayer_input(seed: int, n: int, m: int, clean: int, dirty: int) -> MultilayerInput:
    """Background edges on random layers plus a clean and a dirty clique."""
    rng = np.random.default_rng([seed, 3])
    u, v = random_pairs(rng, n, m)
    layer = rng.integers(0, len(LAYERS), size=m)
    clean_nodes, dirty_nodes = planted_sets(rng, n, [clean, dirty])
    keep = background(u, v, n, [clean_nodes, dirty_nodes])
    u, v, layer = u[keep], v[keep], layer[keep]
    cu, cv = clique_pairs(clean_nodes)
    du, dv = clique_pairs(dirty_nodes)
    # The dirty clique is doubled: one allowed copy and one excluded copy.
    return MultilayerInput(
        n,
        np.concatenate([u, cu, du, du]),
        np.concatenate([v, cv, dv, dv]),
        np.concatenate(
            [layer, rng.integers(0, 2, size=cu.shape[0]), np.zeros(du.shape[0], dtype=np.int64),
             np.full(du.shape[0], 2)]
        ),
        [clean_nodes, dirty_nodes],
    )


def exact_input(seed: int, n: int, m: int, core_size: int) -> tuple[EdgeList, np.ndarray]:
    """Uniform endpoints, integer weights 1..3, and a planted core of weight-3 edges.

    Uniform endpoints keep the min-cut work alike from seed to seed, where
    skewed ones change the flow pattern with every draw of the hubs.
    """
    rng = np.random.default_rng([seed, 4])
    u, v = random_pairs(rng, n, m, skew=0.0)
    w = rng.integers(1, 4, size=m).astype(np.float64)
    (core,) = planted_sets(rng, n, [core_size])
    keep = background(u, v, n, [core])
    u, v, w = u[keep], v[keep], w[keep]
    cu, cv = clique_pairs(core)
    keep = rng.random(cu.shape[0]) < 0.8
    cu, cv = cu[keep], cv[keep]
    wpos = np.concatenate([w, np.full(cu.shape[0], 3.0)])
    return EdgeList(n, np.concatenate([u, cu]), np.concatenate([v, cv]), wpos, np.zeros_like(wpos)), core


def search_input(
    seed: int, salt: int, n: int, per_node: int, core_size: int, neg_ratio: float
) -> tuple[EdgeList, np.ndarray]:
    """Signed graph for the ratio-objective search, with a planted positive core.

    Endpoints are uniform so that the planted core, not a random cluster of
    hubs, is the answer the search should find.

    With ``neg_ratio`` > 0 every edge's negative weight is at most
    ``neg_ratio`` times its positive weight, so the reweighting
    ``wpos - q*rt*wneg`` stays nonnegative up to ``q = 1/(neg_ratio*rt)``
    and the search runs in the mixed flow/peel regime.  With ``neg_ratio``
    == 0 some edges are purely negative, which puts every query of the
    search in the peel regime.
    """
    rng = np.random.default_rng([seed, 5, salt])
    m = n * per_node
    u, v = random_pairs(rng, n, m, skew=0.0)
    wpos = rng.integers(1, 5, size=m).astype(np.float64)
    if neg_ratio > 0:
        wneg = wpos * dyadic(rng, 0.0, neg_ratio, m)
    else:
        wpos[rng.random(m) < 0.2] = 0.0
        wneg = rng.integers(0, 3, size=m).astype(np.float64)
    (core,) = planted_sets(rng, n, [core_size])
    keep = background(u, v, n, [core])
    u, v, wpos, wneg = u[keep], v[keep], wpos[keep], wneg[keep]
    cu, cv = clique_pairs(core)
    cw = np.full(cu.shape[0], 4.0)
    return (
        EdgeList(
            n,
            np.concatenate([u, cu]),
            np.concatenate([v, cv]),
            np.concatenate([wpos, cw]),
            np.concatenate([wneg, np.zeros_like(cw)]),
        ),
        core,
    )
