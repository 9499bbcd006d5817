"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 8 needs the gavin uncertain-graph file (3-column
"u v probability" edge list); point NEGDSD_GAVIN at it or drop it in
data/gavin.txt, otherwise that criterion reports SKIP.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from negdsd import (
    ExclusionQuery,
    ObjectiveParams,
    PeelScoring,
    apply_exclusion,
    best_prefix,
    binary_search_objective,
    brute_force,
    build_multilayer_graph,
    build_signed_graph,
    c_sweep,
    exact_dsd,
    gen_bad_peeling,
    gen_shift_failure,
    hard_w,
    layer_count,
    objective_f,
    peel_order,
    shift_baseline,
    tilde_weights,
)
from negdsd.io import parse_bernoulli
from negdsd.uncertain import bernoulli_graph, risk_profile, uncertain_to_signed

from conftest import random_nonnegative_graph, random_signed_graph


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_peeling_guarantee():
    """peel(C=1) density >= optimum/2 - max_negative_degree/2, 500 graphs."""
    rng = random.Random(2024)
    started = time.perf_counter()
    violations = 0
    for _ in range(500):
        graph = random_signed_graph(rng, max_nodes=12, weight_range=(-3, 3))
        optimum = brute_force(graph).net_density
        delta = max(graph.deg_neg.tolist())
        peeled = best_prefix(graph, peel_order(graph, 1.0), PeelScoring())
        if peeled.net_density < optimum / 2 - delta / 2 - 1e-9:
            violations += 1
    elapsed = time.perf_counter() - started
    report(
        1,
        "peeling guarantee",
        violations == 0 and elapsed < 60,
        f"{violations} violations over 500 graphs in {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_2_exact_solver_matches_oracle():
    """exact_dsd equals brute force bit-for-bit on 500 integer-weight graphs."""
    rng = random.Random(2025)
    mismatches = 0
    for _ in range(500):
        graph = random_nonnegative_graph(rng, max_nodes=12, max_weight=3)
        flow_result = exact_dsd(graph)
        oracle = brute_force(graph)
        if flow_result.net_density != oracle.net_density or not flow_result.exact:
            mismatches += 1
    report(2, "exact solver oracle equivalence", mismatches == 0, f"{mismatches} mismatches over 500 graphs")


def test_criterion_3_binary_search_exact_regime():
    """200 instances built so every reweighted query stays nonnegative."""
    rng = random.Random(2026)
    params = ObjectiveParams()
    failures = 0
    worst = 0.0
    for _ in range(200):
        n = rng.randint(3, 10)
        raw = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.6:
                    raw.append((u, v, float(rng.randint(1, 5)), 0.0))
        bound = (sum(w for _, _, w, _ in raw) + params.lambda1 * n) / params.lambda2
        margin = 1.0 + rng.random()
        raw = [(u, v, w, w / (bound * margin)) for u, v, w, _ in raw]
        graph = build_signed_graph(raw, n=n)
        result, _ = binary_search_objective(graph, params)
        reference = brute_force(graph, params)
        gap = abs(result.f_value - reference.f_value)
        worst = max(worst, gap)
        if gap > 1e-6 or not result.exact:
            failures += 1
    report(
        3,
        "binary search exactness",
        failures == 0,
        f"{failures} failures over 200 instances, worst gap {worst:.2e} (tolerance 1e-6)",
    )


QUERIES = (0.0, 0.5, 1.0, 2.0)
WEIGHT_ALPHABET = (-2, -1, 0, 1, 2)


def _pairs(n):
    return list(itertools.combinations(range(n), 2))


def _equivalence_via_api(n: int) -> int:
    """Exhaustive check through the public API; returns violation count."""
    params = ObjectiveParams()  # lambda1 = lambda2 = risk_tolerance = 1
    pairs = _pairs(n)
    subsets = [
        set(subset)
        for size in range(1, n + 1)
        for subset in itertools.combinations(range(n), size)
    ]
    violations = 0
    for assignment in itertools.product(WEIGHT_ALPHABET, repeat=len(pairs)):
        raw = [
            (u, v, float(max(w, 0)), float(-min(w, 0)))
            for (u, v), w in zip(pairs, assignment)
        ]
        graph = build_signed_graph(raw, n=n)
        f_values = {frozenset(s): objective_f(graph, s, params) for s in subsets}
        for q in QUERIES:
            reweighted = tilde_weights(graph, q, params.risk_tolerance)
            threshold = q * params.lambda2 - params.lambda1
            for subset in subsets:
                total = sum(
                    wpos - wneg for u, v, wpos, wneg in reweighted.rows() if u in subset and v in subset
                )
                lhs = f_values[frozenset(subset)] >= q
                rhs = total >= threshold * len(subset)
                if lhs != rhs:
                    violations += 1
    return violations


def _equivalence_vectorized_n5() -> int:
    """Exhaustive n=5 check, vectorized over all 5**10 weight assignments.

    Mirrors the library arithmetic: with integer weights, unit parameters,
    and queries in {0, 0.5, 1, 2} every intermediate value is a small dyadic
    rational, so float evaluation is exact and aggregate sums equal per-edge
    sums.  The same arithmetic is exercised through the public API
    exhaustively at n <= 4 and on a sample of these graphs below.
    """
    n = 5
    pairs = _pairs(n)
    n_pairs = len(pairs)
    subsets = [
        [i for i, (u, v) in enumerate(pairs) if u in subset and v in subset]
        for size in range(1, n + 1)
        for subset in itertools.combinations(range(n), size)
    ]
    sizes = [
        size
        for size in range(1, n + 1)
        for _ in itertools.combinations(range(n), size)
    ]
    total_graphs = len(WEIGHT_ALPHABET) ** n_pairs
    powers = np.array([len(WEIGHT_ALPHABET) ** k for k in range(n_pairs)], dtype=np.int64)
    violations = 0
    chunk = 1 << 19
    for start in range(0, total_graphs, chunk):
        indices = np.arange(start, min(start + chunk, total_graphs), dtype=np.int64)
        weights = ((indices[:, None] // powers) % len(WEIGHT_ALPHABET) - 2).astype(np.float64)
        wpos = np.maximum(weights, 0.0)
        wneg = np.maximum(-weights, 0.0)
        for members, size in zip(subsets, sizes):
            wp = wpos[:, members].sum(axis=1) if members else np.zeros(len(indices))
            wn = wneg[:, members].sum(axis=1) if members else np.zeros(len(indices))
            f_value = (wp + size) / (wn + size)
            for q in QUERIES:
                lhs = f_value >= q
                rhs = (wp - q * wn) >= (q - 1.0) * size
                violations += int(np.count_nonzero(lhs != rhs))
    return violations


def test_criterion_4_query_equivalence_exhaustive():
    """Objective threshold vs reweighted density threshold, all graphs n <= 5."""
    violations = 0
    for n in (1, 2, 3, 4):
        violations += _equivalence_via_api(n)
    violations += _equivalence_vectorized_n5()
    # spot-weld the vectorized layer to the API on a sample of n=5 graphs
    rng = random.Random(2027)
    params = ObjectiveParams()
    pairs = _pairs(5)
    for _ in range(300):
        assignment = [rng.choice(WEIGHT_ALPHABET) for _ in pairs]
        raw = [
            (u, v, float(max(w, 0)), float(-min(w, 0)))
            for (u, v), w in zip(pairs, assignment)
        ]
        graph = build_signed_graph(raw, n=5)
        for q in QUERIES:
            reweighted = tilde_weights(graph, q)
            threshold = q - 1.0
            for size in range(1, 6):
                for subset in itertools.combinations(range(5), size):
                    inside = set(subset)
                    total = sum(wpos - wneg for u, v, wpos, wneg in reweighted.rows() if u in inside and v in inside)
                    if (objective_f(graph, subset, params) >= q) != (total >= threshold * size):
                        violations += 1
    report(4, "query equivalence", violations == 0, f"{violations} violations across all graphs with n <= 5")


def test_criterion_5_peeling_trap_reproduction():
    started = time.perf_counter()
    graph = gen_bad_peeling(16, 0.01)
    plain = best_prefix(graph, peel_order(graph, 1.0), PeelScoring())
    swept = c_sweep(graph)
    oracle = brute_force(graph)
    elapsed = time.perf_counter() - started
    ok = (
        abs(plain.net_density - 0.01) <= 1e-12
        and abs(swept.net_density - 3.0075) <= 1e-9
        and abs(oracle.net_density - 3.0075) <= 1e-9
        and oracle.nodes == frozenset({0, 1, 2, 3})
        and elapsed < 1.0
    )
    report(
        5,
        "peeling trap",
        ok,
        f"plain={plain.net_density}, sweep={swept.net_density}, optimum={oracle.net_density}, {elapsed:.2f}s",
    )


def test_criterion_6_shift_baseline_failure():
    graph = gen_shift_failure(20, 10, 0.01)
    baseline = shift_baseline(graph)
    swept = c_sweep(graph)
    ok = abs(baseline.net_density - (-0.095)) <= 1e-9 and swept.net_density >= 1.0
    report(
        6,
        "shift baseline failure",
        ok,
        f"baseline true density={baseline.net_density}, sweep={swept.net_density}",
    )


def test_criterion_7_exclusion_guarantees():
    rng = random.Random(2028)
    layers = ("a", "b", "c")
    hard_violations = 0
    monotonicity_violations = 0
    for _ in range(200):
        n = rng.randint(3, 12)
        edges = []
        target = rng.randint(2, 3 * n)
        while len(edges) < target:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v, rng.choice(layers)))
        graph = build_multilayer_graph(edges, n=n)
        excluded = {rng.choice(layers)} & graph.layers
        if not excluded:
            continue
        counts = []
        for weight in (1.0, 5.0, float(hard_w(graph, excluded))):
            signed = apply_exclusion(graph, ExclusionQuery.soft(excluded, weight))
            optimum = brute_force(signed)
            counts.append(
                sum(layer_count(graph, optimum.nodes, layer) for layer in excluded)
            )
        has_allowed_edge = any(layer not in excluded for _, _, layer in graph.rows())
        if has_allowed_edge and counts[-1] != 0:
            hard_violations += 1
        if not (counts[0] >= counts[1] >= counts[2]):
            monotonicity_violations += 1
    ok = hard_violations == 0 and monotonicity_violations == 0
    report(
        7,
        "exclusion guarantees",
        ok,
        f"{hard_violations} hard-exclusion and {monotonicity_violations} monotonicity violations over 200 graphs",
    )


def _gavin_path() -> Path | None:
    candidate = os.environ.get("NEGDSD_GAVIN")
    if candidate and Path(candidate).exists():
        return Path(candidate)
    default = Path(__file__).resolve().parent.parent / "data" / "gavin.txt"
    return default if default.exists() else None


def test_criterion_8_risk_tolerance_trend():
    path = _gavin_path()
    if path is None:
        print(
            "[acceptance] criterion 8 (risk tolerance trend): SKIP - gavin dataset "
            "not present (set NEGDSD_GAVIN or add data/gavin.txt)"
        )
        pytest.skip("gavin dataset not available")
    edges, labels = parse_bernoulli(path.read_text())
    uncertain = bernoulli_graph(edges, n=len(labels))
    signed = uncertain_to_signed(uncertain)
    risks = []
    sizes = []
    for tolerance in (0.25, 1.0, 2.0):
        params = ObjectiveParams(1.0, 1.0, tolerance)
        result = c_sweep(signed, [1.0], PeelScoring(mode="objective", params=params))
        profile = risk_profile(uncertain, result.nodes)
        risks.append(profile.avg_risk)
        sizes.append(profile.size)
    ok = all(a >= b - 1e-12 for a, b in zip(risks, risks[1:])) and all(
        a <= b for a, b in zip(sizes, sizes[1:])
    )
    report(
        8,
        "risk tolerance trend",
        ok,
        f"avg risk {['%.4f' % r for r in risks]}, sizes {sizes} over tolerance (0.25, 1, 2)",
    )


def test_criterion_9_large_graph_performance():
    probe = Path(__file__).resolve().parent / "perf_probe.py"
    completed = subprocess.run(
        [sys.executable, str(probe)],
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    stats = json.loads(completed.stdout)
    ok = stats["peel_seconds"] < 10.0 and stats["peak_rss_mb"] < 1024.0
    report(
        9,
        "large graph performance",
        ok,
        f"peel {stats['peel_seconds']:.2f}s (limit 10s), peak {stats['peak_rss_mb']:.0f} MB "
        f"(limit 1024 MB), n={stats['nodes']}, m={stats['edges']}",
    )
