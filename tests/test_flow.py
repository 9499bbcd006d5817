"""Dinic max flow and residual sink side against networkx on random integer networks."""

import random

import networkx as nx
import numpy as np
import pytest

from negdsd.flow import Dinic

from conftest import reference_sink_side


def reference_network(n, pairs) -> nx.DiGraph:
    """Arc pairs (u, v, cap, back) as a networkx graph; parallel arcs add up, as it keeps one per ordered pair."""
    graph = nx.DiGraph()
    graph.add_nodes_from(range(n))
    for u, v, cap, back in pairs:
        for a, b, c in ((u, v, cap), (v, u, back)):
            previous = graph.get_edge_data(a, b, {"capacity": 0})["capacity"]
            graph.add_edge(a, b, capacity=previous + c)
    return graph


def check(n, pairs, source, sink) -> int:
    """Solve with Dinic; compare the flow value and the sink side with networkx; return the flow."""
    net = Dinic(n, *zip(*pairs)) if pairs else Dinic(n, [], [], [], [])
    assert len(net.to) == 2 * len(pairs)
    flow = net.max_flow(source, sink)
    side = net.residual_sink_side(sink)
    reference = reference_network(n, pairs)
    assert flow == nx.maximum_flow_value(reference, source, sink)
    assert side.dtype == bool and side.shape == (n,)
    assert side[sink] and not side[source]
    assert (side == reference_sink_side(reference, source, sink)).all()
    # the sink side is the sink half of a minimum cut
    arcs = [(u, v, cap) for u, v, cap, _ in pairs] + [(v, u, back) for u, v, _, back in pairs]
    assert sum(c for u, v, c in arcs if not side[u] and side[v]) == flow
    return flow


def random_pairs(rng, n, source, sink, top, undirected=False, zeros=False):
    """Random arc pairs on n nodes with source and sink arcs; capacities up to ``top``."""
    pairs = []
    for _ in range(rng.randint(2 * n, 6 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            cap = 0 if zeros and rng.random() < 0.3 else rng.randint(0, top)
            pairs.append((u, v, cap, cap if undirected else 0))
    pairs += [(source, v, rng.randint(1, top), 0) for v in rng.sample(range(n), n // 10)]
    pairs += [(v, sink, rng.randint(1, top), 0) for v in rng.sample(range(n), n // 10)]
    pairs += rng.choices(pairs, k=len(pairs) // 4)  # parallel arcs
    rng.shuffle(pairs)
    return [(u, v, c, b) for u, v, c, b in pairs if u != v]


@pytest.mark.parametrize("seed", range(6))
def test_max_flow_matches_networkx(seed):
    rng = random.Random(seed)
    n = rng.randint(200, 400)
    assert check(n, random_pairs(rng, n, 0, n - 1, 10 ** rng.randint(1, 12)), 0, n - 1) > 0


@pytest.mark.parametrize("seed", range(4))
def test_capacities_beyond_int64(seed):
    rng = random.Random(100 + seed)
    n = rng.randint(60, 120)
    pairs = random_pairs(rng, n, 0, n - 1, 2**80)
    assert check(n, pairs, 0, n - 1) > 2**63


@pytest.mark.parametrize("seed", range(4))
def test_zero_capacity_and_parallel_arcs(seed):
    rng = random.Random(200 + seed)
    n = rng.randint(30, 80)
    pairs = random_pairs(rng, n, 0, n - 1, 5, zeros=True)
    pairs += [(u, v, 0, 0) for u, v, _, _ in rng.sample(pairs, 10)]  # closed both ways
    check(n, pairs, 0, n - 1)


@pytest.mark.parametrize("seed", range(4))
def test_undirected_pairs(seed):
    rng = random.Random(300 + seed)
    n = rng.randint(50, 150)
    check(n, random_pairs(rng, n, 0, n - 1, 10**6, undirected=True), 0, n - 1)


@pytest.mark.parametrize("seed", range(4))
def test_loop_pairs_carry_no_flow(seed):
    rng = random.Random(500 + seed)
    n = rng.randint(30, 120)
    pairs = random_pairs(rng, n, 0, n - 1, 10**6, undirected=seed % 2 == 1)
    loops = [(x, x, rng.randint(0, 10**6), rng.randint(0, 10**6)) for x in rng.choices(range(n), k=n // 2)]
    looped = pairs + loops
    rng.shuffle(looped)
    net = Dinic(n, *zip(*looped))
    assert len(net.to) == 2 * len(pairs)  # the loops are dropped
    reference = reference_network(n, looped)
    assert net.max_flow(0, n - 1) == nx.maximum_flow_value(reference, 0, n - 1)
    assert (net.residual_sink_side(n - 1) == reference_sink_side(reference, 0, n - 1)).all()


def test_pairs_that_already_carry_flow():
    # s -> 1 -> t with 3 of 5 units pushed already, and a parallel route s -> 2 -> 1
    pairs = [(0, 1, 2, 3), (1, 3, 1, 3), (0, 2, 4, 0), (2, 1, 4, 0)]
    net = Dinic(4, *zip(*pairs))
    assert net.max_flow(0, 3) == 1  # the increase over the 3 units held
    assert net.residual_sink_side(3).tolist() == [False, False, False, True]


def test_no_sink_arcs():
    rng = random.Random(400)
    n = 50
    pairs = [p for p in random_pairs(rng, n, 0, n - 1, 100, undirected=True) if n - 1 not in p[:2]]
    assert check(n, pairs, 0, n - 1) == 0
    assert check(3, [], 0, 2) == 0


def test_sink_side_of_a_small_network():
    # two routes into t, each cut at its source arc: 1 and 2 still reach t
    pairs = [(0, 1, 1, 0), (1, 3, 5, 0), (0, 2, 1, 0), (2, 3, 5, 0), (1, 2, 7, 7)]
    net = Dinic(4, *zip(*pairs))
    assert net.max_flow(0, 3) == 2
    assert net.residual_sink_side(3).tolist() == [False, True, True, True]
