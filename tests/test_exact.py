"""Min-cut decision, exact solver, objective binary search, and the oracle."""

import itertools
import math
import random
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

import negdsd.exact
import negdsd.flow
from negdsd import (
    DEFAULT_C_LIST,
    ObjectiveParams,
    PeelScoring,
    SignedGraph,
    binary_search_objective,
    brute_force,
    build_signed_graph,
    c_sweep,
    dsd_decision,
    exact_dsd,
    objective_f,
    objective_upper_bound,
    tilde_weights,
)
from negdsd.errors import (
    BadParametersError,
    EmptySetError,
    NegativeWeightError,
    TooLargeError,
)
from negdsd.core import DsdResult, _induced_edges, _sequential_sum
from negdsd.exact import (
    DecisionOutcome,
    _bulk_peel,
    _degrees,
    _density_floor,
    _density_program,
    _density_start,
    _dinkelbach,
    _float_core,
    _max_density_side,
    _q_core,
    _ratio_program,
)

from conftest import (
    naive_best,
    naive_induced,
    naive_peel,
    random_multigraph,
    random_nonnegative_graph,
    random_signed_graph,
    reference_sink_side,
)


def weighted(n: int, records) -> SignedGraph:
    """The signed graph of (u, v, w) records: w >= 0 (-0.0 too) as wpos, w < 0 as wneg."""
    return build_signed_graph([(u, v, w, 0.0) if w >= 0 else (u, v, 0.0, -w) for u, v, w in records], n=n)


def net_weights(graph: SignedGraph) -> np.ndarray:
    return graph.wpos - graph.wneg


def unit_triangle() -> SignedGraph:
    return weighted(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])


def _nonempty_subsets(n: int):
    for size in range(1, n + 1):
        yield from itertools.combinations(range(n), size)


def tie_prone_graph(rng: random.Random) -> SignedGraph:
    """Random nonnegative multigraph, n <= 10, with loops, parallel records,
    zero weights and, on some draws, a disjoint copy of itself so that the
    optimum is attained by more than one set."""
    n = rng.randint(1, 5 if rng.random() < 1 / 3 else 10)
    edges = []
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if rng.random() < 0.2:
            v = u  # loop
        edges.append((u, v, rng.choice((0.0, 0.5, 1.0, 1.0, 2.0, 3.0))))
    if edges and rng.random() < 0.3:
        edges.append(rng.choice(edges))  # parallel record
    if n <= 5 and rng.random() < 0.5:
        edges += [(u + n, v + n, w) for u, v, w in edges]
        n *= 2
    return weighted(n, edges)


def subset_weights(graph: SignedGraph) -> dict[frozenset, Fraction]:
    """w(S) as an exact Fraction for every subset S, the empty set included.

    The weights are small multiples of 1/2, so their float sums are exact.
    """
    weights = {}
    for size in range(graph.n + 1):
        for subset in itertools.combinations(range(graph.n), size):
            members = frozenset(subset)
            weights[members] = Fraction(
                sum(wpos - wneg for u, v, wpos, wneg in graph.rows() if u in members and v in members)
            )
    return weights


def largest_maximizer(weights: dict[frozenset, Fraction], key) -> frozenset:
    """Union of every set attaining the maximum of ``key(S)``."""
    values = {s: key(s, w) for s, w in weights.items()}
    top = max(values.values())
    return frozenset().union(*(s for s, value in values.items() if value == top))


class TestDecision:
    def test_triangle_thresholds(self):
        g = unit_triangle()
        below = dsd_decision(g, 0.9)
        assert below.feasible and below.witness == frozenset({0, 1, 2})
        at_optimum = dsd_decision(g, 1.0)  # >= semantics keeps the optimum feasible
        assert at_optimum.feasible and at_optimum.witness == frozenset({0, 1, 2})
        assert not dsd_decision(g, 1.1).feasible

    def test_answer_matches_exact_rational_oracle(self):
        # Weights are integers, so every density is a small rational and the
        # >= comparison can be checked exactly against the dyadic value of g.
        rng = random.Random(43)
        for _ in range(40):
            signed = random_nonnegative_graph(rng, max_nodes=10)
            exact_best = max(
                Fraction(int(naive_induced(signed, s)[0]), len(s))
                for s in _nonempty_subsets(signed.n)
            )
            _, best = naive_best(signed, "density")
            for g_query in (0.0, best / 2, best, best + 0.05):
                outcome = dsd_decision(signed, g_query)
                assert outcome.feasible == (exact_best >= Fraction(g_query))
                if outcome.feasible:
                    witness_density = Fraction(
                        int(naive_induced(signed, outcome.witness)[0]), len(outcome.witness)
                    )
                    assert witness_density >= Fraction(g_query)

    def test_monotone_in_guess(self):
        rng = random.Random(47)
        for _ in range(20):
            g = random_nonnegative_graph(rng, max_nodes=9)
            answers = [dsd_decision(g, q).feasible for q in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)]
            assert answers == sorted(answers, reverse=True)

    def test_negative_weight_rejected(self):
        with pytest.raises(NegativeWeightError):
            dsd_decision(weighted(2, [(0, 1, -1.0)]), 0.5)

    def test_non_finite_threshold_rejected(self):
        for g in (float("nan"), float("inf"), 10**400, -(10**400), "a", None):
            with pytest.raises(BadParametersError, match="density threshold must be finite"):
                dsd_decision(unit_triangle(), g)

    def test_empty_graph_is_infeasible(self):
        assert not dsd_decision(weighted(0, []), 0.5).feasible

    def test_witness_is_largest_maximizer(self):
        rng = random.Random(89)
        for _ in range(200):
            g = tie_prone_graph(rng)
            weights = subset_weights(g)
            best = max(w / len(s) for s, w in weights.items() if s)
            for g_query in (0.0, 1.0, float(best), 2.5):
                d = Fraction(g_query)
                expected = largest_maximizer(weights, lambda s, w: w - d * len(s))
                outcome = dsd_decision(g, g_query)
                assert outcome.feasible == bool(expected)
                assert outcome.witness == (expected or None)


class TestExactDsd:
    def test_triangle(self):
        result = exact_dsd(unit_triangle())
        assert result.nodes == frozenset({0, 1, 2})
        assert result.net_density == 1.0
        assert result.exact

    def test_path(self):
        g = weighted(3, [(0, 1, 1.0), (1, 2, 1.0)])
        result = exact_dsd(g)
        assert result.nodes == frozenset({0, 1, 2})
        assert result.net_density == pytest.approx(2 / 3)

    def test_star(self):
        g = weighted(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
        result = exact_dsd(g)
        assert result.nodes == frozenset({0, 1, 2, 3})
        assert result.net_density == pytest.approx(3 / 4)

    def test_matches_oracle_on_random_integer_graphs(self):
        rng = random.Random(53)
        for _ in range(100):
            signed = random_nonnegative_graph(rng, max_nodes=10)
            result = exact_dsd(signed)
            _, best = naive_best(signed, "density")
            assert result.exact
            assert result.net_density == best

    def test_dyadic_weights_stay_exact(self):
        g = weighted(3, [(0, 1, 0.25), (1, 2, 0.5), (0, 2, 0.75)])
        result = exact_dsd(g)
        assert result.exact
        assert result.net_density == pytest.approx(0.5)

    def test_non_dyadic_weights_stay_exact(self):
        signed = build_signed_graph([(0, 1, 0.3, 0), (1, 2, 0.1, 0), (0, 2, 0.2, 0)])
        result = exact_dsd(signed)
        assert result.exact
        _, best = naive_best(signed, "density")
        assert result.net_density == pytest.approx(best, abs=1e-6)

    def test_no_edges(self):
        result = exact_dsd(weighted(3, []))
        assert result.net_density == 0.0

    def test_returns_union_of_all_maximizers(self):
        rng = random.Random(83)
        for _ in range(200):
            g = tie_prone_graph(rng)
            weights = subset_weights(g)
            expected = largest_maximizer(
                {s: w for s, w in weights.items() if s}, lambda s, w: w / len(s)
            )
            result = exact_dsd(g)
            assert result.nodes == expected
            assert result.net_density == pytest.approx(float(weights[expected] / len(expected)))

    def test_planted_clique_needs_one_small_cut(self, monkeypatch):
        rng = random.Random(97)
        r, n = 12, 300
        edges = [(u, v, 1.0) for u, v in itertools.combinations(range(r), 2)]
        for _ in range(n):
            edges.append((rng.randrange(r, n), rng.randrange(r, n), float(rng.randint(1, 2))))
        for _ in range(10):
            edges.append((rng.randrange(r), rng.randrange(r, n), 1.0))
        networks = []
        original = negdsd.flow.Dinic.__init__

        def record(self, size, *pairs):
            networks.append(size)
            original(self, size, *pairs)

        monkeypatch.setattr(negdsd.flow.Dinic, "__init__", record)
        result = exact_dsd(weighted(n, edges))
        assert result.nodes == frozenset(range(r))
        assert len(networks) == 1 and networks[0] <= r + 2

    def test_one_cut_at_the_bulk_value(self, monkeypatch):
        # the bulk peel finds the planted set B: the start's peel and the one cut both take the q-core at B's value
        edges = [(u, v, 1.0) for u, v in itertools.combinations(range(8), 2)]
        edges += [(u, u + 1, 1.0) for u in range(8, 60)]
        cores = []
        original = negdsd.exact._q_core

        def record(program, a, b, cost):
            cores.append(Fraction(a, b))
            return original(program, a, b, cost)

        monkeypatch.setattr(negdsd.exact, "_q_core", record)
        result = exact_dsd(weighted(61, edges))
        assert result.nodes == frozenset(range(8))
        assert cores == [Fraction(28, 8)] * 2

    def test_validation(self):
        with pytest.raises(EmptySetError):
            exact_dsd(weighted(0, []))
        with pytest.raises(NegativeWeightError, match=r"edge \(0, 1\) has negative weight -0.5"):
            exact_dsd(weighted(2, [(0, 1, -0.5)]))
        with pytest.raises(NegativeWeightError, match=r"edge \(1, 2\) has negative weight -1.5"):
            exact_dsd(build_signed_graph([(0, 1, 2.0, 1.0), (1, 2, 0.5, 2.0), (0, 2, 0.0, 1.0)]))
        with pytest.raises(BadParametersError):  # its degree sum overflows, rejected at the build
            exact_dsd(weighted(2, [(0, 1, 1e308)]))

    def test_negative_weight_error_names_the_pair(self):
        graph = build_signed_graph([(0, 1, 2.0, 1.0), (2, 1, 0.5, 2.0), (0, 2, 0.0, 1.0)])
        with pytest.raises(NegativeWeightError) as caught:
            exact_dsd(graph)
        error = caught.value
        assert (error.u, error.v, error.weight) == (1, 2, -1.5)
        assert type(error.u) is int and type(error.v) is int and type(error.weight) is float
        assert str(error) == "edge (1, 2) has negative weight -1.5"

    def test_int_total_beyond_float_rejected_at_build(self):
        # each int fits a float, their sum does not: the build rejects it with
        # the typed error of any float total, before a solver sees the graph
        with pytest.raises(BadParametersError, match="too large for a float"):
            build_signed_graph([(0, 1, 10**308, 0.0), (0, 1, 10**308, 0.0)])

    def test_both_magnitudes_answer_as_the_net_graph(self):
        # pairs carry both magnitudes, net >= 0: the solvers read only the net
        # weights, so they answer as on net_weighted(), whose wneg is all zero
        rng = random.Random(149)
        for _ in range(150):
            n = rng.randint(1, 12)
            records = []
            for _ in range(rng.randint(0, 3 * n)):
                u, v = rng.randrange(n), rng.randrange(n)
                net = rng.choice((0.0, 0.5, 1.0, 1 / 3, 2.0, 3.0, 1e-300))
                wneg = rng.choice((0.0, 0.25, 1.0, 0.1, 7.0))
                records.append((u, v, net + wneg, wneg))
            graph = build_signed_graph(records, n=n)  # each wpos >= its wneg, so sums keep net >= 0
            net = graph.net_weighted()
            assert net.total_neg == 0.0 and np.array_equal(net.wpos, net_weights(graph))
            assert repr(exact_dsd(graph)) == repr(exact_dsd(net))
            for q in (0.0, 0.5, 1.0, exact_dsd(graph).net_density, 2.5):
                assert repr(dsd_decision(graph, q)) == repr(dsd_decision(net, q))


def reference_program(n, u, v, p_values, r_values, lambda1, lambda2, r_factor):
    """(P, R, degrees of P and R, l1, l2, q_max) scaled weight by weight with as_integer_ratio and lcm."""
    ratio = lambda x: tuple(map(int, Fraction(x).as_integer_ratio()))  # noqa: E731
    (f_num, f_den), (l1_num, l1_den), (l2_num, l2_den) = ratio(r_factor), ratio(lambda1), ratio(lambda2)
    p_ratio = [ratio(x) for x in p_values]
    r_ratio = [ratio(x) for x in r_values]
    scale = math.lcm(l1_den, l2_den, *{d for _, d in p_ratio}, *{d * f_den for _, d in r_ratio})
    p = [a * (scale // d) for a, d in p_ratio]
    r = [a * f_num * (scale // (d * f_den)) for a, d in r_ratio]
    deg_p, deg_r = [0] * n, [0] * n
    for a, b, p_e, r_e in zip(u, v, p, r):
        for end in (a, b):
            deg_p[end] += p_e
            deg_r[end] += r_e
    q_max = min((Fraction(p_e, r_e) for p_e, r_e in zip(p, r) if r_e), default=math.inf)
    return p, r, deg_p, deg_r, l1_num * (scale // l1_den), l2_num * (scale // l2_den), q_max


class TestRatioProgram:
    FLOATS = [0.0, 5e-324, 2.5e-310, 1e300, 0.1, 1 / 3, 3.0, 0.75, 1e-5, -0.0]
    COLUMNS = [
        np.array(FLOATS),
        np.array(FLOATS[::-1]),
        np.array([2.0, 4.0, 1.0, 8.0, 0.0, 6.0, 1.0, 2.0, 3.0, 1.0]),
        np.array([3, 0, 2**70, 1, 5, 6, 7, 8, 9, 10], dtype=np.float64),  # 2**70 exactly
    ]
    PARAMS = [(0, 1, 1.0), (0.7, 0.1, 0.3), (5e-324, 3, 2.5), (2, 1e-3, 3), (np.int64(1), 0.5, 0.1)]

    def test_vectorized_scaling_matches_per_weight_reference(self):
        rng = random.Random(109)
        for p_values, r_values in itertools.product(self.COLUMNS, repeat=2):
            u = [rng.randrange(4) for _ in p_values]
            v = [a if rng.random() < 0.2 else rng.randrange(4) for a in u]  # loops and parallel pairs
            for lambda1, lambda2, r_factor in self.PARAMS:
                program = _ratio_program(
                    4, np.array(u), np.array(v), p_values, r_values, lambda1, lambda2, r_factor
                )
                got = (
                    program.p.tolist(), program.r.tolist(), program.deg_p, program.deg_r,
                    program.l1, program.l2, program.q_max,
                )
                expected = reference_program(4, u, v, p_values, r_values, lambda1, lambda2, r_factor)
                assert got == expected
                assert all(type(x) is int for x in got[0] + got[1] + got[2] + got[3])

    def test_degrees_equal_an_add_at_over_both_ends(self):
        # the program sums its degrees over its arc lists, a loop's one arc added twice
        rng = random.Random(211)
        for i in range(300):
            if i % 2:
                graph = random_multigraph(rng, max_nodes=20)  # collapsed, with loops
                n, u, v, p_values, r_values = graph.n, graph.u, graph.v, graph.wpos, graph.wneg
            else:  # raw records: loops and parallel pairs
                n = rng.randint(1, 8)
                m = rng.randint(0, 25)
                u = np.array([rng.randrange(n) for _ in range(m)], dtype=np.int64)
                v = np.array([a if rng.random() < 0.25 else rng.randrange(n) for a in u.tolist()], dtype=np.int64)
                p_values = np.array([rng.choice((0.0, 0.5, 3.0, 0.1)) for _ in range(m)])
                r_values = np.array([rng.choice((0.0, 0.25, 1 / 3)) for _ in range(m)])
            program = _ratio_program(n, u, v, p_values, r_values, 1, 1, rng.choice((1.0, 0.3)))
            for got, weights in ((program.deg_p, program.p), (program.deg_r, program.r)):
                expected = np.zeros(n, dtype=object)
                np.add.at(expected, np.concatenate([u, v]), np.concatenate([weights, weights]))
                assert got == expected.tolist()
                assert all(type(x) is int for x in got)

    def test_no_edges(self):
        empty = np.zeros(0)
        ids = empty.astype(np.int64)
        program = _ratio_program(2, ids, ids, empty, empty, 0.5, 0.25, 0.3)
        assert Fraction(program.l1, program.l2) == 2 and program.q_max == math.inf
        assert program.deg_p == program.deg_r == [0, 0]


class TestDensityStart:
    def test_never_below_best_prefix_of_full_peel(self):
        # Weights are multiples of 1/4, so the float peel of the oracle and
        # every sum below are exact.
        rng = random.Random(113)
        for _ in range(250):
            n = rng.randint(1, 24)
            records = []
            for _ in range(rng.randint(0, 4 * n)):
                u = rng.randrange(n)
                v = u if rng.random() < 0.1 else rng.randrange(n)
                records.append((u, v, rng.randint(0, 12) / 4))
            if records and rng.random() < 0.5:
                records += rng.choices(records, k=rng.randint(1, len(records)))  # parallel records
            graph = weighted(n, records)

            def value(nodes):
                inside = set(nodes)
                return Fraction(sum(w for u, v, w in records if u in inside and v in inside)) / len(inside)

            program, weights = _density_program(graph, net_weights(graph))
            start = _density_start(program, weights, _bulk_peel(graph.n, graph.u, graph.v, weights)[0])
            sequence = naive_peel(build_signed_graph([(u, v, w, 0.0) for u, v, w in records], n=n), 1.0)
            assert start
            assert value(start) >= max(value(sequence[n - size :]) for size in range(1, n + 1))


def full_program_exact_dsd(graph: SignedGraph) -> DsdResult:
    """exact_dsd's steps over the program of the whole graph, with no float prune."""
    program, weights = _density_program(graph, net_weights(graph))
    start = _density_start(program, weights, _bulk_peel(graph.n, graph.u, graph.v, weights)[0])
    best, _, _, _ = _dinkelbach(program, start)
    nodes = frozenset(best)
    w_float = _sequential_sum(weights[_induced_edges(graph, nodes)])
    return DsdResult(nodes, w_float / len(nodes), w_float, 0.0, True, "exact_dsd")


def full_program_decision(graph: SignedGraph, g: float) -> DecisionOutcome:
    """dsd_decision's cut over the program of the whole graph, with no float prune."""
    witness = _max_density_side(_density_program(graph, net_weights(graph))[0], Fraction(g))
    return DecisionOutcome(True, frozenset(witness)) if witness else DecisionOutcome(False, None)


def prune_prone_graph(rng: random.Random) -> SignedGraph:
    """Random nonnegative graph, n <= 30, with a denser part, loops, parallel
    records, zeros, subnormals and, on some draws, ints beyond 2**53 (which
    the build rounds to float64)."""
    n = rng.randint(1, 30)
    pool = [0.0, -0.0, 5e-324, 2.5e-310, 0.1, 1 / 3, 0.5, 1.0, 2.0, 3.0, 7.5, 1e290]
    if rng.random() < 0.3:
        pool += [0, 1, 2, 2**53 + 1, 3 * 2**60, 2**70 + 3]
    dense = rng.sample(range(n), rng.randint(1, n))
    records = []
    for _ in range(rng.randint(0, 4 * n)):
        ends = dense if rng.random() < 0.4 else range(n)
        u, v = rng.choice(ends), rng.choice(ends)
        records.append((u, u if rng.random() < 0.15 else v, rng.choice(pool)))
    if records and rng.random() < 0.4:
        records += rng.choices(records, k=rng.randint(1, len(records)))  # parallel records
    return weighted(n, records)


class TestFloatPrune:
    def test_survivors_hold_the_exact_q_core(self):
        rng = random.Random(127)
        pruned = 0
        for _ in range(400):
            graph = prune_prone_graph(rng)
            weights = net_weights(graph)
            program, _ = _density_program(graph, weights)
            for x in rng.sample(range(graph.n), min(3, graph.n)):
                q = Fraction(program.deg_p[x], program.l2)  # exactly x's degree
                if not q:
                    continue
                q_lo = float(q)
                if Fraction(q_lo) > q:
                    q_lo = math.nextafter(q_lo, 0.0)
                core, _ = _q_core(program, q.numerator, q.denominator, q.numerator * program.l2)
                kept = _float_core(graph, weights, q_lo, [], _degrees(graph.n, graph.u, graph.v, weights))
                assert set(core) <= set(kept.tolist())
                pruned += len(kept) < graph.n
        assert pruned > 300  # the rounds had work to do

    def test_density_floor_is_a_lower_bound(self):
        rng = random.Random(131)
        for _ in range(400):
            graph = prune_prone_graph(rng)
            nodes = frozenset(rng.sample(range(graph.n), rng.randint(1, graph.n)))
            induced = _induced_edges(graph, nodes)
            exact = sum(map(Fraction, net_weights(graph)[induced].tolist()), Fraction(0)) / len(nodes)
            floor = _density_floor(net_weights(graph)[induced], len(nodes))
            assert Fraction(floor) <= exact

    def test_bulk_round_keeps_its_induced_weights(self):
        rng = random.Random(139)
        for _ in range(300):
            graph = prune_prone_graph(rng)
            weights = net_weights(graph)
            bulk, bulk_weights, degrees = _bulk_peel(graph.n, graph.u, graph.v, weights)
            induced = weights[_induced_edges(graph, frozenset(bulk))]
            assert len(bulk_weights) == len(induced)
            assert math.fsum(bulk_weights.tolist()) == math.fsum(induced.tolist())
            assert np.array_equal(degrees, _degrees(graph.n, graph.u, graph.v, weights))

    def test_prune_from_the_bulk_degrees_keeps_the_same_ids(self):
        rng = random.Random(149)
        pruned = 0
        for _ in range(300):
            graph = prune_prone_graph(rng)
            weights = net_weights(graph)
            bulk, bulk_weights, degrees = _bulk_peel(graph.n, graph.u, graph.v, weights)
            ends = np.stack([graph.u, graph.v], axis=1).ravel()  # summed afresh, in another order
            summed = np.bincount(ends, np.repeat(weights, 2), graph.n)
            for q_lo in (_density_floor(bulk_weights, len(bulk)), *rng.sample(degrees.tolist(), min(2, graph.n))):
                kept = _float_core(graph, weights, q_lo, bulk, degrees)
                assert np.array_equal(kept, _float_core(graph, weights, q_lo, bulk, summed))
                pruned += len(kept) < graph.n
        assert pruned > 100  # the shared first round dropped nodes

    def test_negative_zero_weights_answer_as_positive_zero(self):
        # no negative weight, so exact_dsd solves on wpos itself, whose zeros
        # keep their sign where wpos - wneg would have given +0.0
        rng = random.Random(151)
        for _ in range(200):
            graph = prune_prone_graph(rng)
            zero = graph.wpos == 0
            negative, positive = (
                SignedGraph(graph.n, graph.u, graph.v, np.where(zero, sign, graph.wpos), np.full(graph.m, sign))
                for sign in (-0.0, 0.0)
            )
            assert np.signbit(negative.wpos[zero]).all() and np.signbit(negative.wneg).all()
            assert repr(exact_dsd(negative)) == repr(exact_dsd(positive))

    def test_answers_match_the_full_program(self, monkeypatch):
        networks = []
        original = negdsd.flow.Dinic.__init__

        def record(self, size, *pairs):
            networks.append(size)
            original(self, size, *pairs)

        monkeypatch.setattr(negdsd.flow.Dinic, "__init__", record)

        def solved(solve, *args):
            networks.clear()
            return repr(solve(*args)), list(networks)  # same answer, cuts and network sizes

        rng = random.Random(137)
        for _ in range(300):
            graph = prune_prone_graph(rng)
            assert solved(exact_dsd, graph) == solved(full_program_exact_dsd, graph)
            program, _ = _density_program(graph, net_weights(graph))
            degrees = [float(Fraction(d, program.l2)) for d in rng.sample(program.deg_p, min(2, graph.n))]
            for g in (0.0, 1.0, 3.5, exact_dsd(graph).net_density, *degrees):
                assert solved(dsd_decision, graph, g) == solved(full_program_decision, graph, g)

    def test_rounds_stop_early_on_a_comet(self, monkeypatch):
        # a 30-clique of density 14.5 with a path of weight 7.5 attached: path
        # nodes have degree 15, so each round would shed only the path's end
        calls = 0
        original = np.bincount

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(np, "bincount", counted)
        counts = []
        for tail in (2000, 4000):
            edges = [(u, v, 1.0) for u, v in itertools.combinations(range(30), 2)]
            edges += [(0 if k == 30 else k - 1, k, 7.5) for k in range(30, 30 + tail)]
            graph = weighted(30 + tail, edges)
            calls = 0
            result = exact_dsd(graph)
            assert result.nodes == frozenset(range(30))
            counts.append(calls)
            assert graph._index is None  # the exact solver never builds the input's CSR
        # Fixed calls, none per path node: two bulk-peel rounds of two (one
        # per end column), none for the prune's one round (it takes the bulk
        # peel's first-round degrees), the program's CSR; the start's
        # SignedGraph (two degree columns and its CSR, read by the peel) and
        # best_prefix (the permutation check and two weight columns).  A
        # longer tail adds none.
        assert counts == [11, 11]


def networkx_max_density_side(program, q: Fraction) -> list[int]:
    """Largest maximizer of N(S) - q*D(S) by a networkx minimum cut on the whole program.

    Goldberg's network with no q-core, no pre-push and one arc per direction
    and pair: s feeds each node its reweighted degree, each node pays twice
    its cost to t, and each non-loop edge of positive reweighted weight adds
    that weight both ways.
    """
    a, b = q.numerator, q.denominator
    cost = a * program.l2 - b * program.l1
    source, sink = program.n, program.n + 1
    network = nx.DiGraph()
    network.add_nodes_from(range(program.n + 2))

    def add(x, y, capacity):
        previous = network.get_edge_data(x, y, {"capacity": 0})["capacity"]
        network.add_edge(x, y, capacity=previous + capacity)

    for x, (p, r) in enumerate(zip(program.deg_p, program.deg_r)):
        if b * p - a * r > 0:
            add(source, x, b * p - a * r)
        if cost > 0:
            add(x, sink, 2 * cost)
    for x, y, p, r in zip(program.u.tolist(), program.v.tolist(), program.p.tolist(), program.r.tolist()):
        if x != y and b * p - a * r > 0:
            add(x, y, b * p - a * r)
            add(y, x, b * p - a * r)
    side = reference_sink_side(network, source, sink)
    return [x for x in range(program.n) if not side[x]]


class TestArrayNetwork:
    """Answers through the array-built cut equal those through a networkx cut, by repr."""

    @staticmethod
    def both(monkeypatch, solve, *args) -> tuple[str, str]:
        def answer():
            try:
                return repr(solve(*args))
            except BadParametersError as error:  # a sum beyond the float range, raised the same way
                return repr(error)

        got = answer()
        with monkeypatch.context() as patched:
            patched.setattr(negdsd.exact, "_max_density_side", networkx_max_density_side)
            return got, answer()

    def test_float_prune_graphs(self, monkeypatch):
        rng = random.Random(137)
        for _ in range(300):
            graph = prune_prone_graph(rng)
            got, expected = self.both(monkeypatch, exact_dsd, graph)
            assert got == expected
            program, _ = _density_program(graph, net_weights(graph))
            degrees = [float(Fraction(d, program.l2)) for d in rng.sample(program.deg_p, min(2, graph.n))]
            for g in (0.0, 1.0, 3.5, *degrees):
                got, expected = self.both(monkeypatch, dsd_decision, graph, g)
                assert got == expected

    def test_criterion_2_graphs(self, monkeypatch):
        rng = random.Random(2025)
        params = [ObjectiveParams(), ObjectiveParams(0.3, 0.7, 0.25), ObjectiveParams(0, 1, 1)]
        for i in range(500):
            signed = random_nonnegative_graph(rng, max_nodes=12, max_weight=3)
            got, expected = self.both(monkeypatch, exact_dsd, signed)
            assert got == expected
            if i % 5 == 0:  # results and SearchTrace of the search, flow steps only
                got, expected = self.both(monkeypatch, binary_search_objective, signed, params[i % 3])
                assert got == expected

    def test_searches_on_signed_graphs(self, monkeypatch):
        # flow steps only on the corollary graphs, peel steps on most of the others
        rng = random.Random(139)
        for unit, params in itertools.product((1.0, 0.1), (ObjectiveParams(), ObjectiveParams(0.3, 0.7, 0.25))):
            for _ in range(15):
                graph = corollary_regime_graph(rng, params, unit)
                mixed = build_signed_graph(
                    [(u, v, wpos, wneg * rng.choice([1.0, 3.0, 40.0])) for u, v, wpos, wneg in graph.rows()], n=graph.n
                )
                for g in (graph, mixed, random_signed_graph(rng, max_nodes=10)):
                    got, expected = self.both(monkeypatch, binary_search_objective, g, params)
                    assert got == expected


class TestBruteForce:
    def test_triangle_objective(self):
        g = build_signed_graph([(0, 1, 1, 0), (0, 2, 1, 0), (1, 2, 1, 0)])
        result = brute_force(g, ObjectiveParams())
        assert result.nodes == frozenset({0, 1, 2})
        assert result.f_value == 2.0

    def test_single_node_objective_is_lambda_ratio(self):
        g = build_signed_graph([], n=1)
        result = brute_force(g, ObjectiveParams(lambda1=3, lambda2=4))
        assert result.f_value == pytest.approx(0.75)
        assert result.nodes == frozenset({0})

    def test_size_cap(self):
        with pytest.raises(TooLargeError):
            brute_force(build_signed_graph([], n=23))
        with pytest.raises(EmptySetError):
            brute_force(build_signed_graph([]))

    def test_matches_naive_enumeration(self):
        rng = random.Random(59)
        params = ObjectiveParams(0.5, 1, 2)
        for _ in range(40):
            g = random_signed_graph(rng, max_nodes=8)
            for mode, p in (("density", None), ("objective", params)):
                result = brute_force(g, p)
                subset, value = naive_best(g, mode, p)
                assert result.nodes == frozenset(subset)
                got = result.net_density if mode == "density" else result.f_value
                assert got == pytest.approx(value, abs=1e-12)


def corollary_regime_graph(rng: random.Random, params: ObjectiveParams, unit: float = 1.0):
    """Random instance whose per-edge positive/negative ratio keeps every
    reweighted graph nonnegative throughout the whole search bracket.

    Positive weights are multiples of ``unit``; negative weights are
    non-dyadic whatever the unit."""
    n = rng.randint(3, 10)
    raw = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.6:
                raw.append((u, v, rng.randint(1, 5) * unit, 0.0))
    bound = (sum(w for _, _, w, _ in raw) + params.lambda1 * n) / params.lambda2
    margin = 1.0 + rng.random()
    raw = [(u, v, w, w / (bound * params.risk_tolerance * margin)) for u, v, w, _ in raw]
    return build_signed_graph(raw, n=n)


class TestBinarySearch:
    def test_degenerates_to_plain_dsp_without_negatives(self):
        rng = random.Random(61)
        params = ObjectiveParams(lambda1=0, lambda2=1, risk_tolerance=1)
        for _ in range(10):
            g = random_nonnegative_graph(rng, max_nodes=9)
            result, trace = binary_search_objective(g, params)
            assert result.exact
            assert result.f_value == pytest.approx(exact_dsd(g).net_density, abs=1e-6)
            assert trace.iterations <= 64

    def test_exact_in_corollary_regime(self):
        rng = random.Random(67)
        cases = itertools.product((1.0, 0.1), (ObjectiveParams(), ObjectiveParams(0.3, 0.7, 0.25)))
        for unit, params in cases:
            for _ in range(30):
                g = corollary_regime_graph(rng, params, unit)
                result, trace = binary_search_objective(g, params)
                reference = brute_force(g, params)
                assert result.exact
                assert result.f_value == pytest.approx(reference.f_value, abs=1e-9)
                assert trace.routes == ["flow"] * trace.iterations
                assert trace.iterations <= 8

    def test_heavy_negatives_underclaim_and_flag_inexact(self):
        rng = random.Random(71)
        params = ObjectiveParams()
        for _ in range(20):
            base = random_nonnegative_graph(rng, max_nodes=9)
            g = build_signed_graph(
                [(u, v, wpos, 10.0 * wpos) for u, v, wpos, _ in base.rows()], n=base.n
            )
            result, trace = binary_search_objective(g, params)
            reference = brute_force(g, params)
            assert result.f_value <= reference.f_value + 1e-9
            assert not result.exact
            assert trace.routes[-1] == "peel" and not trace.exact

    def test_bracket_shrinks_monotonically(self):
        g = corollary_regime_graph(random.Random(73), ObjectiveParams())
        _, trace = binary_search_objective(g, ObjectiveParams())
        widths = [hi - lo for lo, hi in zip(trace.lo_history, trace.hi_history)]
        assert all(b <= a + 1e-15 for a, b in zip(widths, widths[1:]))
        assert trace.lo_history[-1] == trace.hi_history[-1]
        assert len(trace.lo_history) == len(trace.hi_history) == trace.iterations + 1
        assert trace.iterations <= 64

    def test_result_value_is_true_objective_of_nodes(self):
        params = ObjectiveParams(0.5, 2, 1.5)
        g = random_signed_graph(random.Random(79), max_nodes=9)
        result, _ = binary_search_objective(g, params)
        assert result.f_value == pytest.approx(objective_f(g, result.nodes, params))
        assert result.f_value <= objective_upper_bound(g, params) + 1e-9

    def test_validation(self):
        with pytest.raises(EmptySetError):
            binary_search_objective(build_signed_graph([]), ObjectiveParams())
        with pytest.raises(BadParametersError):  # the singleton's objective overflows
            binary_search_objective(build_signed_graph([], n=1), ObjectiveParams(lambda2=5e-324))

    def test_subnormal_parameters_scale_exactly(self):
        g = build_signed_graph([(0, 0, 0.0, 0.5)])
        result, _ = binary_search_objective(g, ObjectiveParams(lambda1=5e-324))
        assert result.nodes == frozenset({0})

    def test_numpy_integer_parameters_scale_exactly(self):
        g = build_signed_graph([(0, 1, 5e-324, 0.0), (1, 2, 1.0, 0.5)])
        result, _ = binary_search_objective(g, ObjectiveParams(lambda1=np.int64(1)))
        assert result.nodes == frozenset({1, 2})


def whole_set_search(graph: SignedGraph, params: ObjectiveParams) -> tuple[DsdResult, list[Fraction], list[str]]:
    """The search's result with the driver started from the whole node set, its q history and its routes."""
    rt = params.risk_tolerance
    program = _ratio_program(graph.n, graph.u, graph.v, graph.wpos, graph.wneg, params.lambda1, params.lambda2, rt)

    def peel(q):
        return c_sweep(tilde_weights(graph, float(q), rt), DEFAULT_C_LIST, PeelScoring()).nodes

    nodes, exact, history, routes = _dinkelbach(program, range(graph.n), peel)  # the driver itself, never a spy
    return DsdResult.evaluate(graph, nodes, algorithm="binary_search", exact=exact, params=params), history, routes


def small_negatives_graph(rng: random.Random, max_nodes: int = 14) -> SignedGraph:
    """A random graph of positive weights 1-4, some with a negative weight of 1/32 to 1/2 of it, and a denser set."""
    n = rng.randint(2, max_nodes)
    dense = set(rng.sample(range(n), rng.randint(1, n)))
    raw = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < (0.8 if u in dense and v in dense else 0.3):
                wpos = float(rng.randint(1, 4))
                raw.append((u, v, wpos, wpos * rng.choice((0.0, 0.0, 1 / 32, 1 / 8, 0.5))))
    return build_signed_graph(raw, n=n)


@pytest.fixture
def driver_starts(monkeypatch):
    """The start set of each ``_dinkelbach`` call from now on, as a sorted list."""
    starts = []
    driver = negdsd.exact._dinkelbach

    def spy(program, start, *args, **kwargs):
        starts.append(sorted(start))
        return driver(program, start, *args, **kwargs)

    monkeypatch.setattr(negdsd.exact, "_dinkelbach", spy)
    return starts


class TestWarmStart:
    """The search may start from a c=1 peel's best prefix; its answers stay those of the whole-set start."""

    PARAMS = [ObjectiveParams(), ObjectiveParams(0.3, 0.7, 0.25), ObjectiveParams(0, 1, 1), ObjectiveParams(0.5, 2, 4)]

    def test_answers_equal_the_whole_set_start(self, driver_starts):
        rng = random.Random(223)
        generators = [
            lambda: random_signed_graph(rng, max_nodes=12),
            lambda: random_multigraph(rng, max_nodes=16),
            lambda: random_nonnegative_graph(rng, max_nodes=12),
            lambda: corollary_regime_graph(rng, rng.choice(self.PARAMS), rng.choice((1.0, 0.1))),
            lambda: small_negatives_graph(rng),
        ]
        counts = {"whole": 0, "warm": 0, "again": 0}
        for i in range(1000):
            graph = generators[i % len(generators)]()
            whole = list(range(graph.n))
            for params in rng.sample(self.PARAMS, 2):
                del driver_starts[:]
                result, trace = binary_search_objective(graph, params)
                expected, history, routes = whole_set_search(graph, params)
                assert repr(result) == repr(expected)
                assert trace.exact == result.exact and trace.lo == float(history[-1])
                if driver_starts[-1] != whole:  # a warm start that every cut answered
                    assert len(driver_starts) == 1 and trace.exact
                    assert trace.routes == ["flow"] * trace.iterations and trace.iterations <= len(routes)
                    counts["warm"] += 1
                else:  # the whole set's search, run first or again after the warm run passed q_max
                    assert (trace.lo_history, trace.routes) == ([float(q) for q in history], routes)
                    counts["whole" if len(driver_starts) == 1 else "again"] += 1
        assert sum(counts.values()) == 2000 and counts["warm"] > 300, counts

    def test_warm_run_past_q_max_starts_over_from_the_whole_set(self, driver_starts):
        # q_max = 4/2 = 2 (edge 0-2); V = 23/14 < S0 = {0, 3} = 2 <= q_max < OPT = {0, 1, 3} = 13/6
        graph = build_signed_graph([(0, 1, 2.0, 0.0), (0, 2, 4.0, 2.0), (0, 3, 3.0, 0.0)], n=5)
        params = ObjectiveParams(0.5, 1, 1)
        result, trace = binary_search_objective(graph, params)
        assert driver_starts == [[0, 3], [0, 1, 2, 3, 4]]
        expected, history, routes = whole_set_search(graph, params)
        assert repr(result) == repr(expected)
        assert trace.lo_history == [float(q) for q in history] and trace.routes == routes
        assert trace.lo_history[0] == 23 / 14 and "peel" in routes and not trace.exact

    def test_prefix_no_better_than_the_whole_set_is_not_used(self, driver_starts):
        triangle = build_signed_graph([(0, 1, 1.0, 0.0), (1, 2, 1.0, 0.0), (0, 2, 1.0, 0.0)])
        result, trace = binary_search_objective(triangle, ObjectiveParams())
        assert driver_starts == [[0, 1, 2]]  # the peel's best prefix is the whole triangle
        assert result.nodes == frozenset({0, 1, 2}) and trace.lo_history == [2.0, 2.0]

    def test_planted_set_is_certified_by_one_cut(self, driver_starts):
        rng = random.Random(227)
        raw = [(u, v, 1.0, 1 / 32) for u, v in (rng.sample(range(40), 2) for _ in range(60))]
        raw += [(u, v, 4.0, 0.0) for u, v in itertools.combinations(range(40, 48), 2)]
        graph = build_signed_graph(raw, n=48)
        params = ObjectiveParams(1, 1, 0.25)
        result, trace = binary_search_objective(graph, params)
        assert result.nodes == frozenset(range(40, 48)) and result.exact
        assert driver_starts == [list(range(40, 48))] and trace.routes == ["flow"]
        assert repr(result) == repr(whole_set_search(graph, params)[0])
