"""The answer checker must catch wrong answers.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import check
import gen


def small_graph(seed: int, signed: bool) -> gen.EdgeList:
    rng = np.random.default_rng(seed)
    n = 9
    u, v = gen.random_pairs(rng, n, 24)
    wpos = rng.integers(1, 5, size=24).astype(np.float64)
    wneg = wpos * gen.dyadic(rng, 0.0, 0.25, 24) if signed else np.zeros(24)
    return gen.EdgeList(n, u, v, wpos, wneg)


def brute_best(edges: gen.EdgeList, value) -> tuple[tuple[int, ...], float]:
    best = None
    for size in range(1, edges.n + 1):
        for nodes in itertools.combinations(range(edges.n), size):
            wpos, wneg = check.induced(edges.u, edges.v, [edges.wpos, edges.wneg], check.node_mask(edges.n, nodes))
            score = value(wpos, wneg, size)
            if best is None or score > best[1]:
                best = (nodes, score)
    return best


def reported(edges: gen.EdgeList, nodes, params=None) -> dict:
    wpos, wneg = check.induced(edges.u, edges.v, [edges.wpos, edges.wneg], check.node_mask(edges.n, nodes))
    k = len(nodes)
    f = check.objective(wpos, wneg, k, *params) if params else None
    return {"size": k, "wpos_total": wpos, "wneg_total": wneg, "net_density": (wpos - wneg) / k, "f_value": f}


def test_true_values_pass_and_tampered_values_fail():
    edges = small_graph(1, signed=True)
    nodes = [0, 2, 3, 5]
    params = (1.0, 1.0, 0.5)
    good = reported(edges, nodes, params)
    assert check.check_values(edges, nodes, good, params)[0] == []
    for key in ("wpos_total", "wneg_total", "net_density", "f_value", "size"):
        bad = dict(good, **{key: good[key] + 1})
        assert check.check_values(edges, nodes, bad, params)[0], key


def test_densest_certificate_accepts_the_optimum_and_rejects_a_worse_set():
    for seed in range(5):
        edges = small_graph(seed, signed=False)
        best, rho = brute_best(edges, lambda wpos, wneg, k: wpos / k)
        assert check.certify_densest(edges, best) == []
        worse = [x for x in range(edges.n) if x not in best[:1]]
        wpos = check.induced(edges.u, edges.v, [edges.wpos], check.node_mask(edges.n, worse))[0]
        if wpos / len(worse) < rho:
            assert check.certify_densest(edges, worse)


def test_objective_certificate_rejects_an_understated_optimum():
    params = (1.0, 1.0, 0.5)
    for seed in range(5):
        edges = small_graph(seed, signed=True)
        _, f_star = brute_best(edges, lambda wpos, wneg, k: check.objective(wpos, wneg, k, *params))
        assert check.certify_objective(edges, f_star, params) == []
        assert check.certify_objective(edges, f_star * 0.9, params)


def test_hard_exclusion_leak_and_rising_risk_are_caught():
    u = np.array([0, 1, 2])
    v = np.array([1, 2, 3])
    excluded = np.array([False, True, False])
    assert check.check_no_excluded(u, v, excluded, 4, [0, 1]) == []
    assert check.check_no_excluded(u, v, excluded, 4, [0, 1, 2])
    assert check.check_risk_order([0.25, 1.0, 2.0], [3.0, 1.0, 1.0]) == []
    assert check.check_risk_order([0.25, 1.0, 2.0], [3.0, 1.0, 1.5])


def test_reported_metric_names_match_benchmark_json():
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import layers
    import run
    from spans import Summary
    from workloads import Round

    listed = json.loads((root / "BENCHMARK.json").read_text())
    empty = Summary([], [])
    per_layer = layers.metrics(empty, empty, 1, 1.0, {"startup_s": 0.0, "unreported_s": 0.0, "overhead_s": 0.0})
    workload = SimpleNamespace(peak_rss_mb=lambda: 1.0)
    runner = SimpleNamespace(qualities=[1.0])
    end_to_end = run.end_to_end(workload, runner, [Round(1.0, {"kind1": 0.5, "kind2": 0.5}, [])])
    for reported, key in ((end_to_end, "end_to_end"), (per_layer, "per_layer")):
        assert [(name, unit) for name, (_, unit) in reported.items()] == [
            (m["name"], m["unit"]) for m in listed[key]
        ]
