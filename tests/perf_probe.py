"""Standalone timing/memory probe for the large-graph peel.

Run in its own process so the peak-RSS measurement is not polluted by other
tests; prints a single JSON object on stdout.  ``peel_seconds`` (gated by
acceptance criterion 9) is ``peel_order_seconds + best_prefix_seconds``.
"""

import json
import resource
import time

import numpy as np

from negdsd import PeelScoring, best_prefix, build_signed_graph, peel_order

NODES = 100_000
EDGES = 1_000_000
SEED = 20240301


def main() -> None:
    rng = np.random.default_rng(SEED)
    us = rng.integers(0, NODES, size=EDGES)
    vs = rng.integers(0, NODES, size=EDGES)
    nets = rng.uniform(-1.0, 3.0, size=EDGES)
    wpos = np.maximum(nets, 0.0)
    wneg = np.maximum(-nets, 0.0)

    build_start = time.perf_counter()
    records = zip(us.tolist(), vs.tolist(), wpos.tolist(), wneg.tolist())
    graph = build_signed_graph(records, n=NODES)
    build_seconds = time.perf_counter() - build_start
    del us, vs, nets, wpos, wneg, records

    peel_start = time.perf_counter()
    order = peel_order(graph, 1.0)
    prefix_start = time.perf_counter()
    result = best_prefix(graph, order, PeelScoring())
    prefix_end = time.perf_counter()

    print(
        json.dumps(
            {
                "nodes": graph.n,
                "edges": graph.m,
                "build_seconds": build_seconds,
                "peel_order_seconds": prefix_start - peel_start,
                "best_prefix_seconds": prefix_end - prefix_start,
                "peel_seconds": prefix_end - peel_start,
                "net_density": result.net_density,
                "result_size": result.size,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        )
    )


if __name__ == "__main__":
    main()
