"""Shared test oracles, deliberately independent of the library internals.

Everything here recomputes from first principles: subset enumeration with
itertools, peeling by rescanning all survivors for the minimum score, and
direct edge sums.  Tests compare the package's optimized paths against
these.
"""

from __future__ import annotations

import itertools
import os
import random
from pathlib import Path

import networkx as nx
import numpy as np
from hypothesis import settings

import negdsd
from negdsd import SignedGraph, build_signed_graph

TIE = 1e-12

# Fuzz tests replay the same examples on every run and never time out.
settings.register_profile("negdsd", deadline=None, derandomize=True, max_examples=150)
settings.load_profile("negdsd")


def child_env() -> dict:
    """Environment in which a child process imports ``negdsd`` from the tree under test."""
    src = str(Path(negdsd.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def reference_sink_side(graph: nx.DiGraph, source, sink) -> np.ndarray:
    """Mask of the nodes 0..n-1 of ``graph`` (arcs with a "capacity") that
    reach ``sink`` in the residual network of networkx's maximum flow.

    That set is the same for every maximum flow; its complement is the
    largest source side of a minimum cut.
    """
    _, flow = nx.maximum_flow(graph, source, sink)
    residual = nx.DiGraph()
    residual.add_nodes_from(graph)
    for a, b, data in graph.edges(data=True):
        back = flow[b][a] if graph.has_edge(b, a) else 0
        if data["capacity"] - flow[a][b] + back > 0:
            residual.add_edge(a, b)
        if flow[a][b] > 0:  # the reverse residual arc, when b -> a is not an arc of its own
            residual.add_edge(b, a)
    side = np.zeros(graph.number_of_nodes(), dtype=bool)
    side[list(nx.ancestors(residual, sink) | {sink})] = True
    return side


def naive_induced(graph: SignedGraph, nodes) -> tuple[float, float]:
    node_set = set(nodes)
    wpos = wneg = 0.0
    for u, v, pos, neg in graph.rows():
        if u in node_set and v in node_set:
            wpos += pos
            wneg += neg
    return wpos, wneg


def naive_density(graph: SignedGraph, nodes) -> float:
    wpos, wneg = naive_induced(graph, nodes)
    return (wpos - wneg) / len(set(nodes))


def naive_objective(graph: SignedGraph, nodes, params) -> float:
    wpos, wneg = naive_induced(graph, nodes)
    k = len(set(nodes))
    return (wpos + params.lambda1 * k) / (params.risk_tolerance * wneg + params.lambda2 * k)


def naive_best(graph: SignedGraph, mode: str = "density", params=None):
    """Exhaustive optimum by plain subset enumeration; ties to lex-smallest."""
    best_value = None
    best_subset = None
    for size in range(1, graph.n + 1):
        for subset in itertools.combinations(range(graph.n), size):
            if mode == "density":
                value = naive_density(graph, subset)
            else:
                value = naive_objective(graph, subset, params)
            if (
                best_value is None
                or value > best_value + TIE
                or (abs(value - best_value) <= TIE and subset < best_subset)
            ):
                best_value, best_subset = value, subset
    return best_subset, best_value


def assert_same_signed(got: SignedGraph, want: SignedGraph) -> None:
    """Two signed graphs hold equal arrays, dtype included, and equal totals."""
    assert (got.n, got.total_pos, got.total_neg) == (want.n, want.total_pos, want.total_neg)
    for name in ("u", "v", "wpos", "wneg", "deg_pos", "deg_neg", "indptr", "neighbor", "edge_id"):
        ours, theirs = getattr(got, name), getattr(want, name)
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), name


def naive_peel(graph: SignedGraph, c: float) -> list[int]:
    """Peel by rescanning every survivor each round; ties to the smallest id."""
    return naive_peel_scores(graph, c)[0]


def naive_peel_scores(graph: SignedGraph, c: float) -> tuple[list[int], list[float]]:
    """:func:`naive_peel`'s removal sequence and each node's score as it left."""
    alive = set(range(graph.n))
    pos = [0.0] * graph.n
    neg = [0.0] * graph.n
    for u, v, wpos, wneg in graph.rows():
        for end in (u, v):  # a loop counts twice
            pos[end] += wpos
            neg[end] += wneg
    sequence = []
    scores = []
    while alive:
        target = min(alive, key=lambda v: (c * pos[v] - neg[v], v))
        sequence.append(target)
        scores.append(c * pos[target] - neg[target])
        alive.remove(target)
        for u, v, wpos, wneg in graph.rows():
            if u == target and v in alive:
                pos[v] -= wpos
                neg[v] -= wneg
            elif v == target and u in alive:
                pos[u] -= wpos
                neg[u] -= wneg
    return sequence, scores


def naive_prefix(graph: SignedGraph, sequence, mode: str = "density", params=None):
    """(size, value) of the best suffix of a removal sequence, each scored by naive_induced.

    Ties within TIE go to the smallest suffix.
    """
    values = []
    for size in range(1, graph.n + 1):
        nodes = sequence[graph.n - size :]
        if mode == "density":
            values.append(naive_density(graph, nodes))
        else:
            values.append(naive_objective(graph, nodes, params))
    top = max(values)
    size = next(i + 1 for i, value in enumerate(values) if value >= top - TIE)
    return size, values[size - 1]


def random_multigraph(rng: random.Random, max_nodes: int = 40) -> SignedGraph:
    """Random multigraph with loops, parallel records and mostly negative non-dyadic weights."""
    n = rng.randint(1, max_nodes)
    raw = []
    for _ in range(rng.randint(0, 4 * n)):
        u = rng.randrange(n)
        v = u if rng.random() < 0.1 else rng.randrange(n)
        if rng.random() < 0.7:
            raw.append((u, v, 0.0, rng.uniform(0.01, 1.0)))
        else:
            raw.append((u, v, rng.uniform(0.01, 1.5), rng.choice((0.0, rng.uniform(0.01, 0.3)))))
    return build_signed_graph(raw, n=n)


def random_signed_graph(
    rng: random.Random,
    max_nodes: int = 12,
    weight_range: tuple[int, int] = (-3, 3),
    edge_probability: float = 0.5,
    allow_loops: bool = False,
) -> SignedGraph:
    """Random simple signed graph with integer net weights split by sign."""
    n = rng.randint(2, max_nodes)
    raw = []
    for u in range(n):
        for v in range(u if allow_loops else u + 1, n):
            if rng.random() < edge_probability:
                w = rng.randint(*weight_range)
                if w:
                    raw.append((u, v, float(max(w, 0)), float(max(-w, 0))))
    return build_signed_graph(raw, n=n)


def random_nonnegative_graph(
    rng: random.Random,
    max_nodes: int = 12,
    max_weight: int = 5,
    edge_probability: float = 0.5,
) -> SignedGraph:
    n = rng.randint(2, max_nodes)
    raw = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_probability:
                raw.append((u, v, float(rng.randint(1, max_weight)), 0.0))
    return build_signed_graph(raw, n=n)
