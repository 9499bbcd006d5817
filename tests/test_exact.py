"""Min-cut decision, exact solver, objective binary search, and the oracle."""

import itertools
import math
import random
import warnings
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    _certifies,
    _degrees,
    _dinkelbach,
    _float_core,
    _max_density_side,
    _objective_floor,
    _q_core,
    _q_max,
    _ratio_program,
    _warm_start,
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


DENSITY = ObjectiveParams(0, 1)  # exact_dsd's objective: P = net weights, R = 0


def full_program(graph: SignedGraph, p: np.ndarray, r: np.ndarray, params: ObjectiveParams = DENSITY):
    """The front end's program of the whole graph (no float prune), with its q_max."""
    rt = params.risk_tolerance
    return _ratio_program(graph.n, graph.u, graph.v, p, r, params.lambda1, params.lambda2, rt, _q_max(p, r, rt))


def density_program(graph: SignedGraph):
    weights = net_weights(graph)
    return full_program(graph, weights, np.zeros_like(weights))


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
        at_bulk_value = []
        original = negdsd.exact._q_core

        def record(program, w, cost):
            a, b = 7, 2  # q = 28/8 reweights the edges to b*P - a*R at cost a*l2 - b*l1
            expected = (b * program.p - a * program.r).tolist(), a * program.l2 - b * program.l1
            at_bulk_value.append((w.tolist(), cost) == expected)
            return original(program, w, cost)

        monkeypatch.setattr(negdsd.exact, "_q_core", record)
        result = exact_dsd(weighted(61, edges))
        assert result.nodes == frozenset(range(8))
        assert at_bulk_value == [True] * 2

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


def reference_program(u, v, p_values, r_values, lambda1, lambda2, r_factor):
    """(P, R, l1, l2, q_max) scaled weight by weight with as_integer_ratio and lcm."""
    ratio = lambda x: tuple(map(int, Fraction(x).as_integer_ratio()))  # noqa: E731
    (f_num, f_den), (l1_num, l1_den), (l2_num, l2_den) = ratio(r_factor), ratio(lambda1), ratio(lambda2)
    p_ratio = [ratio(x) for x in p_values]
    r_ratio = [ratio(x) for x in r_values]
    scale = math.lcm(l1_den, l2_den, *{d for _, d in p_ratio}, *{d * f_den for _, d in r_ratio})
    p = [a * (scale // d) for a, d in p_ratio]
    r = [a * f_num * (scale // (d * f_den)) for a, d in r_ratio]
    q_max = min((Fraction(p_e, r_e) for p_e, r_e in zip(p, r) if r_e), default=math.inf)
    return p, r, l1_num * (scale // l1_den), l2_num * (scale // l2_den), q_max


def column_degrees(program, w: np.ndarray) -> list[int]:
    """Each node's degree over the program's edges weighing ``w``, edge by edge, a loop counted twice."""
    degree = [0] * program.n
    for x, y, w_e in zip(program.u.tolist(), program.v.tolist(), w.tolist()):
        degree[x] += w_e
        degree[y] += w_e
    return degree


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
                q_max = _q_max(p_values, r_values, r_factor)
                program = _ratio_program(
                    4, np.array(u), np.array(v), p_values, r_values, lambda1, lambda2, r_factor, q_max
                )
                got = program.p.tolist(), program.r.tolist(), program.l1, program.l2, program.q_max
                expected = reference_program(u, v, p_values, r_values, lambda1, lambda2, r_factor)
                assert got == expected
                assert all(type(x) is int for x in got[0] + got[1])

    def test_degrees_equal_an_add_at_over_both_ends(self):
        # with no node below the cost, the q-core's degrees are each column's sums over both ends
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
            program = _ratio_program(n, u, v, p_values, r_values, 1, 1, rng.choice((1.0, 0.3)), math.inf)
            for weights in (program.p, program.r):
                core, got = _q_core(program, weights, 0)
                expected = np.zeros(n, dtype=object)
                np.add.at(expected, np.concatenate([u, v]), np.concatenate([weights, weights]))
                assert core == list(range(n)) and got == expected.tolist()
                assert all(type(x) is int for x in got)

    def test_no_edges(self):
        empty = np.zeros(0)
        ids = empty.astype(np.int64)
        program = _ratio_program(2, ids, ids, empty, empty, 0.5, 0.25, 0.3, _q_max(empty, empty, 0.3))
        assert Fraction(program.l1, program.l2) == 2 and program.q_max == math.inf
        assert _q_core(program, program.p, 0) == _q_core(program, program.r, 0) == ([0, 1], [0, 0])


def naive_q_core(graph: SignedGraph, params: ObjectiveParams, q: Fraction) -> tuple[list[int], dict]:
    """The q-core in Fractions over ``graph.rows()``: nodes are dropped while their degree of
    wpos - q*rt*wneg among the survivors is below q*l2 - l1; returns them and their degrees."""
    l1, l2, rt = (Fraction(x) for x in (params.lambda1, params.lambda2, params.risk_tolerance))
    alive = set(range(graph.n))
    while True:
        degree = dict.fromkeys(alive, Fraction(0))
        for x, y, wpos, wneg in graph.rows():
            if x in alive and y in alive:
                w = Fraction(wpos) - q * rt * Fraction(wneg)
                degree[x] += w
                degree[y] += w
        low = {x for x in alive if degree[x] < q * l2 - l1}
        if not low:
            return sorted(alive), degree
        alive -= low


class TestQCore:
    def test_matches_a_fraction_fixpoint_over_the_rows(self):
        rng = random.Random(307)
        pool = (0.0, -0.0, 0.25, 0.5, 1.0, 1 / 3, 3.0, 5e-324)
        cases = {"none": 0, "some": 0, "all": 0}  # how many nodes each q-core dropped
        for _ in range(500):
            n = rng.randint(1, 12)
            records = []
            for _ in range(rng.randint(0, 4 * n)):
                x, y = rng.randrange(n), rng.randrange(n)
                y = x if rng.random() < 0.2 else y  # loops
                r = rng.choice(pool) if rng.random() < 0.6 else 0.0
                records.append((min(x, y), max(x, y), rng.choice(pool), r))
            if records and rng.random() < 0.5:
                records += rng.choices(records, k=rng.randint(1, len(records)))  # parallel records
            u, v = (np.array([record[i] for record in records], dtype=np.int64) for i in (0, 1))
            p, r = (np.array([record[i] for record in records], dtype=np.float64) for i in (2, 3))
            graph = SignedGraph(n, u, v, p, r)  # uncollapsed: rows() yields every record
            params = ObjectiveParams(rng.choice((0, 0.5, 1.0)), rng.choice((0.5, 1.0, 3.0)), rng.choice((1.0, 0.3)))
            q_max = _q_max(p, r, params.risk_tolerance)
            program = _ratio_program(n, u, v, p, r, params.lambda1, params.lambda2, params.risk_tolerance, q_max)
            scale = Fraction(program.l2) / Fraction(params.lambda2)
            qs = [Fraction(0), *(Fraction(rng.randint(1, 40), rng.choice((1, 3, 8))) for _ in range(2))]
            qs.append(Fraction(10**6) if q_max == math.inf else q_max)
            for q in (q for q in qs if q <= q_max):  # every reweighted edge >= 0
                core, degree = _q_core(program, *program.reweighted(q))
                expected, expected_degree = naive_q_core(graph, params, q)
                assert core == expected
                assert [Fraction(degree[x], q.denominator) for x in core] == [expected_degree[x] * scale for x in core]
                cases["none" if len(core) == n else "some" if core else "all"] += 1
        assert min(cases.values()) > 50, cases

    def test_arcs_are_listed_only_when_a_node_drops(self, monkeypatch):
        import perf_probe

        calls = []
        original = negdsd.exact._csr
        monkeypatch.setattr(negdsd.exact, "_csr", lambda *args: calls.append(args) or original(*args))
        # every step of the probe's peel-regime search peels, so its program is never walked
        result, trace = binary_search_objective(perf_probe.search_graph(200, 0.0), ObjectiveParams(1.0, 1.0, 1.0))
        assert trace.routes == ["peel"] * trace.iterations and not result.exact
        assert calls == []
        # the prune keeps the clique alone, and the start's q-core and the cut's keep all of it
        edges = [(x, y, 1.0) for x, y in itertools.combinations(range(8), 2)]
        graph = weighted(61, edges + [(x, x + 1, 1.0) for x in range(8, 60)])
        with perf_probe.exact_spans() as spans:
            assert exact_dsd(graph).nodes == frozenset(range(8))
        assert spans["program_nodes"] == 8 and len(spans["cut_seconds"]) == 1
        assert calls == []
        program = density_program(graph)
        core, _ = _q_core(program, program.p, 2 * program.l2)  # the path's ends have degree 1
        assert core == list(range(8)) and len(calls) == 1


def exact_q_max(p_values, r_values, r_factor) -> Fraction | float:
    """min P_e / (r_factor * R_e) over R_e > 0 in Fractions, edge by edge."""
    factor = Fraction(*map(int, Fraction(r_factor).as_integer_ratio()))
    return min((Fraction(p) / (factor * Fraction(r)) for p, r in zip(p_values, r_values) if r > 0), default=math.inf)


class TestQMax:
    def check(self, p, r, r_factor=1.0):
        p, r = np.array(p, dtype=np.float64), np.array(r, dtype=np.float64)
        got = _q_max(p, r, r_factor)
        assert got == exact_q_max(p.tolist(), r.tolist(), r_factor)
        if got != math.inf:
            assert type(got.numerator) is int and type(got.denominator) is int
        return got

    def test_float_ties_are_compared_exactly(self):
        # the two quotients round to one float, and 9/37 is less than the other
        p, r = [9.0, 9.000000000000002], [37.0, 37.00000000000001]
        assert p[0] / r[0] == p[1] / r[1] and Fraction(p[1]) / Fraction(r[1]) > Fraction(9, 37)
        assert self.check(p, r) == self.check(p[::-1], r[::-1]) == Fraction(9, 37)
        assert self.check([2.0, 1.0, 4.0] * 50, [6.0, 3.0, 12.0] * 50) == Fraction(1, 3)  # many tied edges

    def test_zero_weights(self):
        assert self.check([0.0, 1.0, -0.0], [1.0, 1.0, 0.5]) == 0
        assert self.check([1.0, 2.0], [0.0, -0.0]) == math.inf  # no R_e > 0
        assert self.check([], []) == math.inf

    def test_subnormal_and_overflowing_quotients(self):
        # both quotients overflow to inf in float64; the exact minimum is the second
        assert self.check([1.0, 1e300], [5e-324, 1e-10]) == Fraction(1e300) / Fraction(1e-10)
        assert self.check([5e-324, 2.5e-310], [2.0, 5e-324]) == Fraction(5e-324) / 2  # underflows to 0.0
        assert self.check([1.7e308, 3.0], [1e-300, 5e-324], 0.25) == Fraction(3.0) / Fraction(5e-324) * 4

    def test_integer_risk_tolerances(self):
        for r_factor in (np.int64(3), 3, np.int32(7), 2**60):
            assert self.check([1.0, 2.0], [3.0, 1.0], r_factor) == Fraction(1, 3 * int(r_factor))

    def test_random_columns(self):
        rng = random.Random(229)
        pool = [0.0, -0.0, 5e-324, 2.5e-310, 1e-300, 0.1, 1 / 3, 0.5, 1.0, 2.0, 3.0, 1e300, 1.7e308]
        for _ in range(1500):
            m = rng.randint(0, 10)
            p, r = [rng.choice(pool) for _ in range(m)], [rng.choice(pool) for _ in range(m)]
            if m and rng.random() < 0.5:  # a halved copy: an equal quotient, unless a half rounds
                k = rng.randrange(m)
                p.append(p[k] / 2)
                r.append(r[k] / 2)
            self.check(p, r, rng.choice((1.0, 0.25, 0.1, 3.0, np.int64(2), 5e-324)))


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

            weights = net_weights(graph)
            program = density_program(graph)
            bulk, _, _ = _bulk_peel(graph.n, graph.u, graph.v, weights)
            start, q = _warm_start(program, weights, 0 * weights, bulk, DENSITY)
            assert q == program.value(start)
            sequence = naive_peel(build_signed_graph([(u, v, w, 0.0) for u, v, w in records], n=n), 1.0)
            assert start
            assert value(start) >= max(value(sequence[n - size :]) for size in range(1, n + 1))


def full_program_exact_dsd(graph: SignedGraph) -> DsdResult:
    """exact_dsd's steps over the program of the whole graph, with no float prune."""
    weights = net_weights(graph)
    program = density_program(graph)
    bulk, _, _ = _bulk_peel(graph.n, graph.u, graph.v, weights)
    best, _, _, _ = _dinkelbach(program, *_warm_start(program, weights, 0 * weights, bulk, DENSITY))
    nodes = frozenset(best)
    w_float = _sequential_sum(weights[_induced_edges(graph, nodes)])
    return DsdResult(nodes, w_float / len(nodes), w_float, 0.0, True, "exact_dsd")


def full_program_decision(graph: SignedGraph, g: float) -> DecisionOutcome:
    """dsd_decision's cut over the program of the whole graph, with no float prune."""
    program = density_program(graph)
    witness = _max_density_side(program, *program.reweighted(Fraction(g)))
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
            program = density_program(graph)
            degrees = column_degrees(program, program.p)
            for x in rng.sample(range(graph.n), min(3, graph.n)):
                q = Fraction(degrees[x], program.l2)  # exactly x's degree
                if not q:
                    continue
                q_lo = float(q)
                if Fraction(q_lo) > q:
                    q_lo = math.nextafter(q_lo, 0.0)
                core, _ = _q_core(program, q.denominator * program.p, q.numerator * program.l2)
                float_degrees = _degrees(graph.n, graph.u, graph.v, weights)
                kept = _float_core(graph.n, graph.u, graph.v, weights, q_lo, [], float_degrees)
                assert set(core) <= set(kept.tolist())
                pruned += len(kept) < graph.n
        assert pruned > 300  # the rounds had work to do

    def test_floor_of_a_density_is_a_lower_bound(self):
        rng = random.Random(131)
        for _ in range(400):
            graph = prune_prone_graph(rng)
            nodes = frozenset(rng.sample(range(graph.n), rng.randint(1, graph.n)))
            induced = _induced_edges(graph, nodes)
            exact = sum(map(Fraction, net_weights(graph)[induced].tolist()), Fraction(0)) / len(nodes)
            floor = _objective_floor(net_weights(graph)[induced], np.zeros(0), len(nodes), DENSITY)
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
            floor = _objective_floor(bulk_weights, np.zeros(0), len(bulk), DENSITY)
            for q_lo in (floor, *rng.sample(degrees.tolist(), min(2, graph.n))):
                kept = _float_core(graph.n, graph.u, graph.v, weights, q_lo, bulk, degrees)
                assert np.array_equal(kept, _float_core(graph.n, graph.u, graph.v, weights, q_lo, bulk, summed))
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
            program = density_program(graph)
            sample = rng.sample(column_degrees(program, program.p), min(2, graph.n))
            degrees = [float(Fraction(d, program.l2)) for d in sample]
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
        # peel's first-round degrees), the CSR of the start's q-core and of
        # the cut's (both drop the path the prune stopped early on); the
        # cut network's CSR; the start's SignedGraph (two degree columns and
        # its CSR, read by the peel) and best_prefix (the permutation check
        # and two weight columns).  A longer tail adds none.
        assert counts == [13, 13]

    def test_objective_floor_is_a_lower_bound(self):
        rng = random.Random(233)
        for _ in range(400):
            graph = prune_prone_graph(rng)
            nodes = frozenset(rng.sample(range(graph.n), rng.randint(1, graph.n)))
            induced = _induced_edges(graph, nodes)
            p, r = graph.wpos[induced], np.abs(net_weights(graph))[induced]
            pool = (0.5, 1e-300, 3, 1e10, np.int64(2))
            params = ObjectiveParams(rng.choice((0, *pool)), rng.choice(pool), rng.choice(pool))
            l1, l2, rt = (
                Fraction(*map(int, Fraction(x).as_integer_ratio()))
                for x in (params.lambda1, params.lambda2, params.risk_tolerance)
            )
            p_total, r_total = (sum(map(Fraction, w.tolist()), Fraction(0)) for w in (p, r))
            exact = (p_total + l1 * len(nodes)) / (rt * r_total + l2 * len(nodes))
            assert Fraction(_objective_floor(p, r, len(nodes), params)) <= exact

    def test_probe_spans_wrap_the_solver_steps(self):
        # tests/perf_probe.py --exact times exact_dsd's helpers by name, so a rename fails here too
        import perf_probe

        edges = [(u, v, 1.0) for u, v in itertools.combinations(range(8), 2)]
        graph = weighted(61, edges + [(u, u + 1, 1.0) for u in range(8, 60)])
        with perf_probe.exact_spans() as spans:
            result = exact_dsd(graph)
        assert sorted(spans) == ["cut_seconds", "program_nodes", "prune_seconds", "start_seconds"]
        assert spans["program_nodes"] < graph.n and len(spans["cut_seconds"]) == 1
        assert result.nodes == frozenset(range(8)) and negdsd.exact._warm_start is _warm_start  # restored


def networkx_max_density_side(program, w: np.ndarray, cost: int) -> list[int]:
    """Largest maximizer of w(S) - |S|*cost by a networkx minimum cut on the whole program.

    Goldberg's network with no q-core, no pre-push and one arc per direction
    and pair: s feeds each node its degree over ``w``, each node pays twice
    the cost to t, and each non-loop edge of positive weight adds that
    weight both ways.
    """
    source, sink = program.n, program.n + 1
    network = nx.DiGraph()
    network.add_nodes_from(range(program.n + 2))

    def add(x, y, capacity):
        previous = network.get_edge_data(x, y, {"capacity": 0})["capacity"]
        network.add_edge(x, y, capacity=previous + capacity)

    for x, degree in enumerate(column_degrees(program, w)):
        if degree > 0:
            add(source, x, degree)
        if cost > 0:
            add(x, sink, 2 * cost)
    for x, y, w_e in zip(program.u.tolist(), program.v.tolist(), w.tolist()):
        if x != y and w_e > 0:
            add(x, y, w_e)
            add(y, x, w_e)
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
            program = density_program(graph)
            sample = rng.sample(column_degrees(program, program.p), min(2, graph.n))
            degrees = [float(Fraction(d, program.l2)) for d in sample]
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

    def test_denominator_beyond_the_float_range_scores_zero(self):
        # rt * wneg of the whole set is 1e310: it scores 0.0 with no overflow warning
        graph = build_signed_graph([(0, 1, 1.0, 1e300), (1, 2, 1.0, 0.0)])
        params = ObjectiveParams(1.0, 1.0, 1e10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert objective_f(graph, {0, 1, 2}, params) == 0.0
            swept = c_sweep(graph, scoring=PeelScoring("objective", params))
            oracle = brute_force(graph, params)
            searched, _ = binary_search_objective(graph, params)
        for result in (swept, oracle, searched):
            assert (result.nodes, result.f_value) == (frozenset({1, 2}), 1.5)

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
    def test_overflowing_reweighting_ends_the_search(self):
        # the second peel step's q * rt is beyond the float range: the clipped
        # certificate holds there, before any reweighting, so the search ends,
        # inexact, on the set its first step found
        graph = build_signed_graph([(0, 1, 1.0, 0.0), (1, 2, 1.0, 0.5), (0, 2, 2.0, 0.0)])
        params = ObjectiveParams(1, 1e-300, 1e10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result, trace = binary_search_objective(graph, params)
        assert result.nodes == brute_force(graph, params).nodes == frozenset({0, 2})
        assert not result.exact and trace.routes == ["peel", "peel"]
        assert trace.lo_history[1:] == [pytest.approx(result.f_value)] * 2

    def test_overflowing_reweighting_ends_an_uncertified_search(self, monkeypatch):
        # the second peel step's q is about 3.3e299, so q * 1e10 is beyond the
        # float range and no certificate holds: tilde_weights raises there and
        # the search ends, inexact, on brute_force's optimum
        graph = build_signed_graph([(1, 1, 1.0, 1e10), (0, 0, 1.0, 1.0), (0, 2, 1e300, 0.0)])
        params = ObjectiveParams(1, 1, 1)
        calls = []

        def spied(*args):
            try:
                reweighted = tilde_weights(*args)
            except BadParametersError:
                calls.append("raised")
                raise
            calls.append("reweighted")
            return reweighted

        monkeypatch.setattr(negdsd.exact, "tilde_weights", spied)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result, trace = binary_search_objective(graph, params)
        assert calls == ["reweighted", "raised"]
        assert trace.routes == ["peel", "peel"] and not result.exact and not trace.exact
        reference = brute_force(graph, params)
        assert (result.nodes, result.f_value) == (reference.nodes, reference.f_value) == (frozenset({0, 2}), 1e300 / 3)

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

    def test_numpy_float32_parameters_scale_exactly(self):
        g = build_signed_graph([(0, 1, 2.0, 0.5), (1, 2, 1.0, 0.0), (2, 3, 1.0, 3.0)])
        params = ObjectiveParams(np.float32(0.5), np.float32(1.5), np.float32(0.25))
        result, trace = binary_search_objective(g, params)
        expected, expected_trace = binary_search_objective(g, ObjectiveParams(0.5, 1.5, 0.25))  # the same values
        assert (result.nodes, trace.lo_history) == (expected.nodes, expected_trace.lo_history)
        assert trace.routes == expected_trace.routes


def whole_set_search(graph: SignedGraph, params: ObjectiveParams) -> tuple[DsdResult, list[Fraction], list[str]]:
    """The search's result with the driver started from the whole node set, its q history and its routes."""
    rt = params.risk_tolerance
    program = full_program(graph, graph.wpos, graph.wneg, params)

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

    def test_planted_set_is_certified_by_one_cut(self, driver_starts, monkeypatch):
        rng = random.Random(227)
        raw = [(u, v, 1.0, 1 / 32) for u, v in (rng.sample(range(40), 2) for _ in range(60))]
        raw += [(u, v, 4.0, 0.0) for u, v in itertools.combinations(range(40, 48), 2)]
        graph = build_signed_graph(raw, n=48)
        params = ObjectiveParams(1, 1, 0.25)
        kept = []  # the ids of the pruned program's nodes: program node i is graph node kept[0][i]
        prune = negdsd.exact._float_core
        monkeypatch.setattr(negdsd.exact, "_float_core", lambda *args: kept.append(prune(*args)) or kept[0])
        result, trace = binary_search_objective(graph, params)
        assert result.nodes == frozenset(range(40, 48)) and result.exact
        assert [kept[0][start].tolist() for start in driver_starts] == [list(range(40, 48))]
        assert trace.routes == ["flow"]
        assert repr(result) == repr(whole_set_search(graph, params)[0])

    def test_pruned_searches_match_the_whole_program(self, monkeypatch):
        programs = []  # node count of each program a search builds
        build = negdsd.exact._ratio_program
        monkeypatch.setattr(negdsd.exact, "_ratio_program", lambda n, *args: programs.append(n) or build(n, *args))
        rng = random.Random(239)
        pruned = 0
        for _ in range(40):
            n = rng.randint(10, 60)
            planted = rng.sample(range(n), rng.randint(5, 9))
            raw = [(u, v, 4.0, 0.0) for u, v in itertools.combinations(planted, 2)]
            for _ in range(n):
                u, v = rng.sample(range(n), 2)
                wpos = float(rng.randint(1, 4))
                raw.append((u, v, wpos, wpos * rng.choice((0.0, 1 / 64, 1 / 32, 1 / 8))))
            graph = build_signed_graph(raw, n=n)
            for l1, rt in itertools.product((0, 0.5, 1), (0.1, 0.25, 1)):
                params = ObjectiveParams(l1, 1, rt)
                del programs[:]
                result, _ = binary_search_objective(graph, params)
                assert repr(result) == repr(whole_set_search(graph, params)[0])
                pruned += programs[0] < n
        assert pruned > 100, pruned


def certifies(graph: SignedGraph, params: ObjectiveParams, q: Fraction) -> bool:
    """``_certifies`` as the search calls it: P = wpos, R = wneg and the graph's wpos degrees."""
    return _certifies(graph, graph.wpos, graph.wneg, params, q, graph.deg_pos)


def unfiltered_certifies(graph: SignedGraph, params: ObjectiveParams, q: Fraction) -> bool:
    """g(q) <= 0 by a networkx cut on the clipped column of the whole graph's program: no prune, no prefilter."""
    program = full_program(graph, graph.wpos, graph.wneg, params)
    w, cost = program.reweighted(q)
    w = np.maximum(w, 0)
    witness = networkx_max_density_side(program, w, cost)
    return w[_induced_edges(program, frozenset(witness))].sum() <= len(witness) * cost


def signed_zero_graph(rng: random.Random, max_nodes: int = 10) -> SignedGraph:
    """Random records with loops, parallel records and weights of both signs, +-0.0 among them."""
    n = rng.randint(1, max_nodes)
    pool = (0.0, -0.0, 0.0, 0.5, 1.0, 3.0, 1 / 3, 2.75)
    raw = []
    for _ in range(rng.randint(0, 3 * n)):
        u = rng.randrange(n)
        raw.append((u, u if rng.random() < 0.2 else rng.randrange(n), rng.choice(pool), rng.choice(pool)))
    if raw and rng.random() < 0.4:
        raw += rng.choices(raw, k=rng.randint(1, len(raw)))  # parallel records
    return build_signed_graph(raw, n=n)


def certificate_queries(graph: SignedGraph, params: ObjectiveParams, rng: random.Random) -> tuple[Fraction, list]:
    """The exact value of ``brute_force``'s optimum, and queries around it: the optimum,
    just below and above it, the search's answer, two random sets' values and 0."""
    program = full_program(graph, graph.wpos, graph.wneg, params)
    best = program.value(brute_force(graph, params).nodes)
    answer = program.value(binary_search_objective(graph, params)[0].nodes)
    sets = [rng.sample(range(graph.n), rng.randint(1, graph.n)) for _ in range(2)]
    step = (best + 1) / 2**20
    return best, [best, best - step, best + step, answer, *map(program.value, sets), Fraction(0)]


@pytest.fixture
def certificate_cuts(monkeypatch):
    """A list that grows by one at each exact cut (``_max_density_side``) from now on."""
    cuts = []
    cut = negdsd.exact._max_density_side
    monkeypatch.setattr(negdsd.exact, "_max_density_side", lambda *args: cuts.append(1) or cut(*args))
    return cuts


class TestCertificate:
    """``_certifies`` holds exactly when the clipped gain g(q) is at most 0, which bounds the optimum by q."""

    PARAMS = TestWarmStart.PARAMS

    def test_certified_queries_bound_the_brute_force_optimum(self, certificate_cuts):
        rng = random.Random(331)
        generators = [
            lambda: signed_zero_graph(rng),
            lambda: random_signed_graph(rng, max_nodes=10, allow_loops=True),
            lambda: random_multigraph(rng, max_nodes=10),
            lambda: small_negatives_graph(rng, max_nodes=10),
            lambda: random_nonnegative_graph(rng, max_nodes=9),
        ]
        counts = {"certified": 0, "prefiltered": 0, "cut": 0, "nonnegative": 0}
        for i in range(150):
            graph = generators[i % len(generators)]()
            params = rng.choice(self.PARAMS)
            best, queries = certificate_queries(graph, params, rng)
            for q in queries:
                del certificate_cuts[:]
                got = certifies(graph, params, q)
                assert got == unfiltered_certifies(graph, params, q), (i, q)
                assert not got or q >= best, (i, q, best)
                counts["certified" if got else "cut" if certificate_cuts else "prefiltered"] += 1
            if graph.total_neg == 0:  # nothing clips: the certificate is exact at the optimum
                assert certifies(graph, params, best) and not certifies(graph, params, queries[1])
                counts["nonnegative"] += 1
        assert min(counts.values()) > 20, counts

    def test_prefilter_never_rejects_a_certifiable_query(self, certificate_cuts):
        # queries at and just above the optimum, where most cuts certify
        rng = random.Random(337)
        rejected = 0
        for i in range(120):
            graph = (signed_zero_graph, random_multigraph, small_negatives_graph)[i % 3](rng, 10)
            params = rng.choice(self.PARAMS)
            best, queries = certificate_queries(graph, params, rng)
            for q in (best, queries[2], best * 2):
                del certificate_cuts[:]
                got = certifies(graph, params, q)
                if not got and not certificate_cuts:  # the prefilter answered
                    assert not unfiltered_certifies(graph, params, q), (i, q)
                    rejected += 1
        assert rejected > 10, rejected

    def test_overflowing_scale_clips_without_warnings(self):
        # at the optimum {0, 2}, q*rt = 2e300 * 1e10 is beyond the float range: the
        # prefilter's product where wneg != 0 is inf and clips to 0, with no warning
        graph = build_signed_graph([(0, 1, 1.0, 0.0), (1, 2, 1.0, 0.5), (0, 2, 2.0, 0.0)])
        params = ObjectiveParams(1, 1e-300, 1e10)
        program = full_program(graph, graph.wpos, graph.wneg, params)
        q = program.value({0, 2})
        assert float(q) * params.risk_tolerance == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert certifies(graph, params, q) and unfiltered_certifies(graph, params, q)
            assert not certifies(graph, params, q * (1 - Fraction(1, 2**40)))

    def test_peel_regime_search_sweeps_once(self):
        # the first step's sweep finds the planted set, which the certificate then
        # proves optimal in place of a second sweep
        import perf_probe

        with perf_probe.counted_sweeps() as sweeps:
            result, trace = binary_search_objective(perf_probe.search_graph(200, 0.0), ObjectiveParams(1.0, 1.0, 1.0))
        assert len(sweeps) == 1
        assert trace.routes == ["peel", "peel"] and not result.exact and not trace.exact
        assert (result.size, result.f_value) == (perf_probe.SEARCH_CORE, 47.0)


signed_zero_records = st.integers(1, 8).flatmap(
    lambda n: st.lists(
        st.tuples(
            st.integers(0, n - 1),
            st.integers(0, n - 1),
            st.sampled_from([0.0, -0.0, 0.5, 1.0, 3.0, 1 / 3]),
            st.sampled_from([0.0, -0.0, 0.25, 1.0, 2.0, 0.1]),
        ),
        max_size=20,
    ).map(lambda records: build_signed_graph(records, n=n))
)


@given(graph=signed_zero_records, params=st.sampled_from(TestWarmStart.PARAMS), salt=st.integers(0, 2**16))
def test_certified_queries_are_sound(graph, params, salt):
    best, queries = certificate_queries(graph, params, random.Random(salt))
    for q in queries:
        got = certifies(graph, params, q)
        assert got == unfiltered_certifies(graph, params, q)
        assert not got or q >= best
