"""Standalone timing/memory probe for the large-graph peel.

Run in its own process so the peak-RSS measurement is not polluted by other
tests; prints a single JSON object on stdout.  ``peel_seconds`` (gated by
acceptance criterion 9) is ``peel_order_seconds + best_prefix_seconds``.

    PYTHONPATH=src python tests/perf_probe.py [--sweep]

``--sweep`` also times ``c_sweep`` over ``DEFAULT_C_LIST`` on the same
graph (``c_sweep_seconds``) after the peel, and reports the largest peak
RSS of its worker processes (``c_sweep_worker_peak_rss_mb``, which counts
the pages a worker shares with this process as well as its own).
"""

import argparse
import json
import resource
import time

import numpy as np

from negdsd import DEFAULT_C_LIST, PeelScoring, best_prefix, build_signed_graph, c_sweep, peel_order

NODES = 100_000
EDGES = 1_000_000
SEED = 20240301


def main() -> None:
    parser = argparse.ArgumentParser(description="Time the peel of a 100k-node, 1M-edge graph.")
    parser.add_argument("--sweep", action="store_true", help="also time c_sweep over DEFAULT_C_LIST")
    args = parser.parse_args()
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

    stats = {
        "nodes": graph.n,
        "edges": graph.m,
        "build_seconds": build_seconds,
        "peel_order_seconds": prefix_start - peel_start,
        "best_prefix_seconds": prefix_end - prefix_start,
        "peel_seconds": prefix_end - peel_start,
        "net_density": result.net_density,
        "result_size": result.size,
    }
    if args.sweep:
        sweep_start = time.perf_counter()
        swept = c_sweep(graph, DEFAULT_C_LIST)
        stats["c_sweep_seconds"] = time.perf_counter() - sweep_start
        stats["c_sweep_net_density"] = swept.net_density
        stats["c_sweep_c_used"] = swept.c_used
        stats["c_sweep_worker_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    stats["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(stats))


if __name__ == "__main__":
    main()
