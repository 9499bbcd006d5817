"""Dinic max flow against networkx on random integer networks."""

import random

import networkx as nx
import pytest

from negdsd.flow import Dinic


@pytest.mark.parametrize("seed", range(6))
def test_max_flow_matches_networkx(seed):
    rng = random.Random(seed)
    n = rng.randint(200, 400)
    source, sink = 0, n - 1
    arcs = [
        (rng.randrange(n), rng.randrange(n), rng.randint(0, 10**rng.randint(1, 12)))
        for _ in range(rng.randint(2 * n, 6 * n))
    ]
    arcs += [(source, v, rng.randint(1, 10**6)) for v in rng.sample(range(n), n // 10)]
    arcs += [(v, sink, rng.randint(1, 10**6)) for v in rng.sample(range(n), n // 10)]
    net = Dinic(n)
    reference = nx.DiGraph()
    reference.add_nodes_from(range(n))
    for u, v, cap in arcs:
        if u == v:
            continue
        net.add_edge(u, v, cap)
        # networkx keeps one arc per ordered pair, so parallel arcs add up
        previous = reference.get_edge_data(u, v, {"capacity": 0})["capacity"]
        reference.add_edge(u, v, capacity=previous + cap)
    flow = net.max_flow(source, sink)
    assert flow > 0
    assert flow == nx.maximum_flow_value(reference, source, sink)
    # the residual sink side is the sink half of a minimum cut
    sink_side = net.residual_sink_side(sink)
    assert source not in sink_side
    cut = sum(cap for u, v, cap in arcs if u != v and u not in sink_side and v in sink_side)
    assert cut == flow
