"""Peeling order, prefix evaluation, and the multiplier sweep."""

import functools
import math
import os
import random
import signal
import sys
import threading
from decimal import Decimal

import numpy as np
import pytest

from negdsd import peeling
from negdsd import (
    DEFAULT_C_LIST,
    ObjectiveParams,
    PeelOrder,
    PeelScoring,
    best_prefix,
    build_signed_graph,
    c_sweep,
    gen_bad_peeling,
    objective_f,
    peel_order,
)
from negdsd.errors import (
    BadParametersError,
    EmptyCListError,
    EmptySetError,
    NonPositiveCError,
)

from conftest import (
    naive_best,
    naive_peel,
    naive_peel_scores,
    naive_prefix,
    random_multigraph,
    random_signed_graph,
)


def triangle():
    return build_signed_graph([(0, 1, 1, 0), (0, 2, 1, 0), (1, 2, 1, 0)])


def dyadic_multigraph(rng: random.Random, max_nodes: int = 30):
    """Loops, parallel records, trailing isolated nodes and weights in quarters, so scores tie exactly and hit 0."""
    n = rng.randint(1, max_nodes)
    raw = []
    for _ in range(rng.randint(0, 3 * n)):
        u = rng.randrange(n)
        v = u if rng.random() < 0.15 else rng.randrange(n)
        raw.append((u, v, rng.randint(0, 4) / 4, rng.randint(0, 4) / 4))
    return build_signed_graph(raw, n=n + rng.randint(0, 3))


class TestPeelOrder:
    def test_triangle_ids_break_ties(self):
        order = peel_order(triangle(), 1.0)
        assert order.removal_sequence == [0, 1, 2]

    def test_trap_removes_hub_first_at_c1(self):
        g = gen_bad_peeling(16, 0.01)
        order = peel_order(g, 1.0)
        assert order.removal_sequence[0] == 3

    def test_trap_keeps_core_last_at_c10(self):
        g = gen_bad_peeling(16, 0.01)
        order = peel_order(g, 10.0)
        assert sorted(order.removal_sequence[-4:]) == [0, 1, 2, 3]
        assert order.removal_sequence == naive_peel(g, 10.0)

    def test_matches_naive_reference(self):
        rng = random.Random(17)
        for _ in range(40):
            g = random_signed_graph(rng, max_nodes=14)
            c = rng.choice((0.25, 0.5, 1.0, 2.0, 4.0))
            assert peel_order(g, c).removal_sequence == naive_peel(g, c)
        # mostly negative weights make scores rise as neighbours leave
        rng = random.Random(19)
        for _ in range(40):
            g = random_multigraph(rng, max_nodes=40)
            for c in DEFAULT_C_LIST:
                assert peel_order(g, c).removal_sequence == naive_peel(g, c)

    def test_deterministic(self):
        g = random_signed_graph(random.Random(3), max_nodes=20)
        assert peel_order(g, 2.0) == peel_order(g, 2.0)

    def test_validation(self):
        with pytest.raises(NonPositiveCError):
            peel_order(triangle(), 0.0)
        for bad in (-1.0, float("nan"), float("inf"), "a", None):
            with pytest.raises(NonPositiveCError):
                peel_order(triangle(), bad)
        with pytest.raises(EmptySetError):
            peel_order(build_signed_graph([]), 1.0)

    @pytest.mark.parametrize("bad", [10**400, Decimal("1e400")])
    def test_multiplier_beyond_the_float_range_rejected(self, bad):
        with pytest.raises(NonPositiveCError):
            peel_order(triangle(), bad)
        with pytest.raises(NonPositiveCError):
            c_sweep(triangle(), [1.0, bad])


@functools.cache
def naive_cases() -> list:
    """(graph, c, naive sequence and scores) on 300 random and dyadic multigraphs at every default multiplier."""
    rng = random.Random(59)
    graphs = [random_multigraph(rng, max_nodes=40) for _ in range(150)]
    graphs += [dyadic_multigraph(rng) for _ in range(150)]
    return [(g, c, naive_peel_scores(g, c)) for g in graphs for c in DEFAULT_C_LIST]


def assert_naive_orders(cases) -> None:
    """Each peel's order equals the naive one, and the naive scores (compared by ==, so -0.0
    equals 0.0) exercise ties and zeros."""
    zeros = ties = 0
    for g, c, (sequence, scores) in cases:
        assert peel_order(g, c).removal_sequence == sequence
        zeros += scores.count(0.0)
        ties += len(scores) - len(set(scores))
    assert zeros > 1000 and ties > 1000


class TestColumnPeel:
    """The column kernel, with one argmin a step or over per-block bounds, gives the naive peel."""

    @pytest.mark.parametrize("loop_arcs", [-1, peeling._COLUMN_PEEL_LOOP_ARCS, 10**9], ids=["numpy", "mixed", "loop"])
    def test_matches_naive_peel(self, monkeypatch, loop_arcs):
        monkeypatch.setattr(peeling, "_COLUMN_PEEL_LOOP_ARCS", loop_arcs)
        assert_naive_orders(naive_cases())

    @pytest.mark.parametrize("block", [1, 3, 8])
    def test_blocked_selection_matches_naive_peel(self, monkeypatch, block):
        monkeypatch.setattr(peeling, "_PEEL_SPLIT_NODES", 0)
        monkeypatch.setattr(peeling, "_PEEL_BLOCK", block)
        for loop_arcs in (-1, peeling._COLUMN_PEEL_LOOP_ARCS, 10**9):
            monkeypatch.setattr(peeling, "_COLUMN_PEEL_LOOP_ARCS", loop_arcs)
            assert_naive_orders(naive_cases())

    def test_peel_order_uses_the_kernel(self, monkeypatch):
        g = dyadic_multigraph(random.Random(61))
        calls = []

        def counting_kernel(graph, c):
            calls.append(c)
            return kernel(graph, c)

        kernel = peeling._peel_columns
        monkeypatch.setattr(peeling, "_peel_columns", counting_kernel)
        assert peel_order(g, 2).removal_sequence == naive_peel(g, 2)
        assert calls == [2]

    def test_graphs_above_the_split_peel_on_blocks(self, monkeypatch):
        g = random_multigraph(random.Random(67), max_nodes=40)
        monkeypatch.setattr(peeling, "_PEEL_BLOCK", 0)  # any use of the blocks divides by zero
        monkeypatch.setattr(peeling, "_PEEL_SPLIT_NODES", g.n)
        assert peel_order(g, 0.25).removal_sequence == naive_peel(g, 0.25)
        monkeypatch.setattr(peeling, "_PEEL_SPLIT_NODES", g.n - 1)
        with pytest.raises(ZeroDivisionError):
            peel_order(g, 0.25)
        monkeypatch.setattr(peeling, "_PEEL_SPLIT_NODES", 10**9)
        with pytest.raises(ZeroDivisionError):  # scores that may overflow peel on blocks too
            peel_order(triangle(), 1e308)

    @pytest.mark.parametrize("split", [peeling._PEEL_SPLIT_NODES, 0], ids=["scan", "blocked"])
    def test_edgeless_graph_peels_by_id(self, monkeypatch, split):
        monkeypatch.setattr(peeling, "_PEEL_SPLIT_NODES", split)
        order = peel_order(build_signed_graph([], n=8_001), 1.0)
        assert order.removal_sequence == list(range(8_001))

    @pytest.mark.parametrize("block", [None, 1, 3, 8, 64], ids=["default", "1", "3", "8", "64"])
    def test_overflowing_scores_match_naive_peel(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(peeling, "_PEEL_SPLIT_NODES", 0)
            monkeypatch.setattr(peeling, "_PEEL_BLOCK", block)
        rng = random.Random(71)
        overflowing = 0
        for _ in range(40):
            g = random_multigraph(rng, max_nodes=30)
            g = build_signed_graph(g.rows(), n=g.n + rng.randint(0, 70))  # isolated nodes in later blocks
            expected = naive_peel_scores(g, 1e308)
            overflowing += math.inf in expected[1]
            assert peel_order(g, 1e308).removal_sequence == expected[0]
        assert overflowing > 10

    def test_finite_scores_at_a_huge_multiplier_use_the_kernel(self):
        g = build_signed_graph([(0, 1, 0, 1.0), (1, 2, 0, 0.5), (2, 2, 0, 0.25)], n=4)
        # no positive degree, so c * posdeg is 0
        assert peel_order(g, 1e308).removal_sequence == naive_peel(g, 1e308)

    def test_int_and_float32_multipliers_score_as_floats(self):
        rng = random.Random(73)
        for _ in range(40):
            g = dyadic_multigraph(rng)
            assert peel_order(g, 2) == peel_order(g, 2.0)
            for c in (np.float32(0.1), np.float64(0.25), np.float32(10)):
                assert peel_order(g, c).removal_sequence == naive_peel(g, float(c))


def negative_zeros(graph):
    """The graph with every zero weight stored as ``-0.0``."""
    return build_signed_graph([(u, v, wp or -0.0, wn or -0.0) for u, v, wp, wn in graph.rows()], n=graph.n)


def dense_orders(graph, c_values) -> list:
    """``_peel_dense``'s sequence of each value, as lists."""
    out = np.empty((len(c_values), graph.n), dtype=np.int64)
    peeling._peel_dense(graph, np.array(c_values, dtype=np.float64)[:, None], out)
    return out.tolist()


@pytest.fixture
def kernel_calls(monkeypatch):
    """The multipliers each kernel peels from now on, under ``dense`` and ``columns``."""
    calls = {"dense": [], "columns": []}
    dense, columns = peeling._peel_dense, peeling._peel_columns

    def counting_dense(graph, c, out):
        calls["dense"].extend(c[:, 0].tolist())
        return dense(graph, c, out)

    def counting_columns(graph, c):
        calls["columns"].append(c)
        return columns(graph, c)

    monkeypatch.setattr(peeling, "_peel_dense", counting_dense)
    monkeypatch.setattr(peeling, "_peel_columns", counting_columns)
    return calls


class TestDensePeel:
    """The lockstep kernel peels several multipliers of a small graph at once, each as the naive peel."""

    def test_matches_naive_peel(self):
        rng = random.Random(79)
        by_graph: dict = {}
        for g, c, expected in naive_cases():
            by_graph.setdefault(g, {})[c] = expected
        zeros = ties = 0
        for g, expected in by_graph.items():
            for size in range(2, len(DEFAULT_C_LIST) + 1):
                c_values = rng.sample(DEFAULT_C_LIST, size)
                assert dense_orders(g, c_values) == [expected[c][0] for c in c_values]
                naive_scores = [expected[c][1] for c in c_values]  # the kernel records none
                zeros += sum(scores.count(0.0) for scores in naive_scores)
                ties += sum(len(scores) - len(set(scores)) for scores in naive_scores)
            repeated = [DEFAULT_C_LIST[3], DEFAULT_C_LIST[0], DEFAULT_C_LIST[3]]
            assert dense_orders(g, repeated) == [expected[c][0] for c in repeated]
            assert dense_orders(negative_zeros(g), repeated) == [expected[c][0] for c in repeated]
        assert zeros > 1000 and ties > 1000

    def test_sweeps_of_small_graphs_peel_together(self, kernel_calls):
        g = gen_bad_peeling(16, 0.01)
        c_list = DEFAULT_C_LIST[: peeling._DENSE_MIN_MULTIPLIERS]
        orders = peeling._peel_orders(g, list(c_list))
        assert kernel_calls == {"dense": list(c_list), "columns": []}
        assert [order.tolist() for order in orders] == [naive_peel(g, c) for c in c_list]
        assert all(order.dtype == np.int64 and not order.flags.writeable for order in orders)
        fewer = DEFAULT_C_LIST[-peeling._DENSE_MIN_MULTIPLIERS + 1 :]
        peeling._peel_orders(gen_bad_peeling(16, 0.01), list(fewer))
        assert kernel_calls["columns"] == list(fewer)

    @pytest.mark.parametrize("extra", [0, 1], ids=["split", "above"])
    def test_split(self, kernel_calls, extra):
        rng = random.Random(83)
        n = peeling._DENSE_MAX_NODES + extra
        raw = [(rng.randrange(n), rng.randrange(n), rng.choice((0.0, 0.5)), rng.uniform(0.0, 1.0)) for _ in range(n)]
        g = build_signed_graph(raw, n=n)
        c_values = [0.25, 4.0, 1.0]
        orders = peeling._peel_sequences(g, c_values)
        assert [order.tolist() for order in orders] == [naive_peel(g, c) for c in c_values]
        assert kernel_calls == ({"dense": c_values, "columns": []} if not extra else {"dense": [], "columns": c_values})

    def test_overflowing_scores_peel_on_columns(self, kernel_calls):
        g = build_signed_graph([(0, 1, 1e10, 0.0), (1, 2, 1.0, 2.0), (2, 2, 0.0, 0.5)], n=4)
        c_values = [1.0, 1e308, 4.0]
        orders = peeling._peel_sequences(g, c_values)
        assert kernel_calls == {"dense": [], "columns": c_values}
        assert [order.tolist() for order in orders] == [naive_peel(g, c) for c in c_values]
        assert math.inf in naive_peel_scores(g, 1e308)[1]

    @pytest.mark.parametrize("loop", [False, True], ids=["isolated", "loop"])
    def test_one_node(self, kernel_calls, loop):
        g = build_signed_graph([(0, 0, 1.5, 0.25)] if loop else [], n=1)
        assert dense_orders(g, [0.5, 2.0]) == [naive_peel(g, 0.5), naive_peel(g, 2.0)]
        assert [order.tolist() for order in peeling._peel_sequences(g, [0.5, 2.0])] == [[0], [0]]

    def test_empty_graph_rejected(self, kernel_calls):
        with pytest.raises(EmptySetError):
            peeling._peel_sequences(build_signed_graph([]), list(DEFAULT_C_LIST))
        with pytest.raises(EmptySetError):
            c_sweep(build_signed_graph([]))
        assert kernel_calls["dense"] == []


class TestBestPrefix:
    def test_triangle_keeps_everything(self):
        g = triangle()
        result = best_prefix(g, peel_order(g, 1.0), PeelScoring())
        assert result.nodes == frozenset({0, 1, 2})
        assert result.net_density == 1.0
        assert result.c_used == 1.0
        assert not result.exact

    def test_trap_c1_returns_eps_triangle(self):
        g = gen_bad_peeling(16, 0.01)
        result = best_prefix(g, peel_order(g, 1.0), PeelScoring())
        assert result.nodes == frozenset({0, 1, 2})
        assert result.net_density == pytest.approx(0.01, abs=1e-12)

    def test_trap_c10_recovers_core(self):
        g = gen_bad_peeling(16, 0.01)
        result = best_prefix(g, peel_order(g, 10.0), PeelScoring())
        assert result.nodes == frozenset({0, 1, 2, 3})
        assert result.net_density == pytest.approx(3.0075, abs=1e-12)
        assert result.c_used == 10.0

    def test_c_used_is_the_orders_multiplier(self):
        g = gen_bad_peeling(16, 0.01)
        assert best_prefix(g, peel_order(g, 2.0), PeelScoring()).c_used == 2.0

    def test_tie_prefers_smaller_prefix(self):
        two_triangles = build_signed_graph(
            [(0, 1, 1, 0), (0, 2, 1, 0), (1, 2, 1, 0), (3, 4, 1, 0), (3, 5, 1, 0), (4, 5, 1, 0)]
        )
        result = best_prefix(two_triangles, peel_order(two_triangles, 1.0), PeelScoring())
        assert result.size == 3
        assert result.net_density == 1.0

    def test_matches_naive_prefix(self):
        rng = random.Random(43)
        params = ObjectiveParams(0.5, 1, 2)
        graphs = [random_multigraph(rng, max_nodes=30) for _ in range(30)]
        for _ in range(10):  # disjoint copies of one dyadic graph tie exactly
            base = random_signed_graph(rng, max_nodes=6, allow_loops=True)
            copies = rng.randint(2, 4)
            raw = [
                (u + k * base.n, v + k * base.n, wpos, wneg) for k in range(copies) for u, v, wpos, wneg in base.rows()
            ]
            graphs.append(build_signed_graph(raw, n=copies * base.n))
        graphs.append(build_signed_graph([], n=5))  # every prefix scores 0
        for g in graphs:
            for c in (0.25, 1.0, 4.0):
                order = peel_order(g, c)
                for mode, scoring in (
                    ("density", PeelScoring()),
                    ("objective", PeelScoring("objective", params)),
                ):
                    size, value = naive_prefix(g, order.removal_sequence, mode, params)
                    result = best_prefix(g, order, scoring)
                    assert result.size == size
                    achieved = result.net_density if mode == "density" else result.f_value
                    assert achieved == pytest.approx(value, abs=1e-9)

    def test_objective_mode_scores_true_objective(self):
        g = build_signed_graph([(0, 1, 2, 0), (1, 2, 1, 3), (2, 3, 1, 0)])
        params = ObjectiveParams(0.5, 1, 2)
        scoring = PeelScoring(mode="objective", params=params)
        result = best_prefix(g, peel_order(g, 1.0), scoring)
        assert result.f_value == pytest.approx(objective_f(g, result.nodes, params))

    def test_prefix_weights_do_not_cancel(self):
        # 0.5 + 0.5 + 2**53 rounds to 2**53: subtracting the peeled weights
        # from that total would leave -1 negative weight and a zero denominator.
        g = build_signed_graph([(0, 0, 0, 0.5), (0, 2, 0, 0.5), (1, 1, 0, 2.0**53)])
        result = best_prefix(g, peel_order(g, 1.0), PeelScoring(mode="objective", params=ObjectiveParams()))
        assert result.nodes == frozenset({2}) and result.f_value == 1.0

    def test_overflowing_objective_rejected(self):
        g = build_signed_graph([(0, 0, 1e300, 3)])
        params = ObjectiveParams(lambda1=1.7976931348623157e308)
        with pytest.raises(BadParametersError):
            best_prefix(g, peel_order(g, 1.0), PeelScoring(mode="objective", params=params))

    def test_rejects_foreign_order(self):
        with pytest.raises(BadParametersError):
            best_prefix(triangle(), PeelOrder([0, 1], 1.0), PeelScoring())
        with pytest.raises(BadParametersError):
            best_prefix(triangle(), PeelOrder([0, 1, 1], 1.0), PeelScoring())

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf, "x", None])
    def test_rejects_a_multiplier_peel_order_rejects(self, c):
        with pytest.raises(NonPositiveCError):
            best_prefix(triangle(), PeelOrder([0, 1, 2], c), PeelScoring())

    def test_scoring_validation(self):
        with pytest.raises(BadParametersError):
            PeelScoring(mode="bogus")
        with pytest.raises(BadParametersError):
            PeelScoring(mode="objective")

    def test_net_density_scoring_rejects_params(self):
        # they would only fill an f_value that objective mode's range check never saw: this one is inf
        params = ObjectiveParams(lambda1=1e308)
        with pytest.raises(BadParametersError, match="net_density mode takes no ObjectiveParams"):
            PeelScoring(params=params)
        with pytest.raises(BadParametersError):
            PeelScoring("net_density", params)

    @pytest.mark.parametrize("c", [True, 2, np.float32(2), np.int64(3), Decimal("0.5")])
    def test_multiplier_stored_as_float(self, c):
        order = peel_order(triangle(), c)
        assert type(order.c) is float and order.c == float(c)
        result = best_prefix(triangle(), order, PeelScoring())
        assert type(result.c_used) is float and result.c_used == float(c)
        assert repr(result) == repr(best_prefix(triangle(), peel_order(triangle(), float(c)), PeelScoring()))


class TestApproximationGuarantee:
    def test_half_optimal_minus_half_max_negative_degree(self):
        rng = random.Random(23)
        for _ in range(100):
            g = random_signed_graph(rng, max_nodes=10)
            _, best = naive_best(g, "density")
            delta = max(g.deg_neg.tolist())
            result = best_prefix(g, peel_order(g, 1.0), PeelScoring())
            assert result.net_density >= best / 2 - delta / 2 - 1e-9

    def test_matches_classic_half_approximation_without_negatives(self):
        rng = random.Random(29)
        for _ in range(60):
            g = random_signed_graph(rng, max_nodes=10, weight_range=(0, 3))
            _, best = naive_best(g, "density")
            result = best_prefix(g, peel_order(g, 1.0), PeelScoring())
            assert result.net_density >= best / 2 - 1e-9


@pytest.fixture
def counted_peels(monkeypatch):
    """The multipliers this process peels from now on, as sweeps hand them to either kernel."""
    peeled = []
    peel = peeling._peel_sequences

    def counting_peel(graph, c_values):
        peeled.extend(c_values)
        return peel(graph, c_values)

    monkeypatch.setattr(peeling, "_peel_sequences", counting_peel)
    return peeled


class TestCSweep:
    def test_default_list(self):
        assert DEFAULT_C_LIST == (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 10.0)

    def test_trap_recovered_by_sweep(self):
        g = gen_bad_peeling(16, 0.01)
        result = c_sweep(g)
        assert result.net_density == pytest.approx(3.0075, abs=1e-9)
        assert result.algorithm == "c_sweep"
        # several multipliers tie at the optimum; the smallest of them wins
        assert result.c_used == 2.0

    def test_triangle_invariant_under_c(self):
        for c_list in ([0.1], [1.0], [10.0], list(DEFAULT_C_LIST)):
            assert c_sweep(triangle(), c_list).net_density == 1.0

    def test_dominates_every_single_run(self):
        rng = random.Random(31)
        for _ in range(25):
            g = random_signed_graph(rng, max_nodes=10)
            swept = c_sweep(g)
            for c in DEFAULT_C_LIST:
                single = best_prefix(g, peel_order(g, c), PeelScoring())
                assert swept.net_density >= single.net_density - 1e-12

    def test_objective_mode_comparison_uses_objective(self):
        rng = random.Random(37)
        params = ObjectiveParams(1, 1, 1)
        scoring = PeelScoring(mode="objective", params=params)
        for _ in range(10):
            g = random_signed_graph(rng, max_nodes=9)
            swept = c_sweep(g, DEFAULT_C_LIST, scoring)
            _, best = naive_best(g, "objective", params)
            assert swept.f_value <= best + 1e-9
            for c in (0.5, 1.0, 4.0):
                single = best_prefix(g, peel_order(g, c), PeelScoring("objective", params))
                assert swept.f_value >= single.f_value - 1e-12

    def test_empty_list_rejected(self):
        with pytest.raises(EmptyCListError):
            c_sweep(triangle(), [])
        with pytest.raises(EmptyCListError):
            c_sweep(triangle(), iter([]))

    @pytest.mark.parametrize(
        "c_list",
        [iter([1.0, 2.0]), np.array([1.0, 2.0]), [np.float64(1.0), np.float32(2.0)], (True, 2.0)],
        ids=["iterator", "array", "numpy_scalars", "bool"],
    )
    def test_any_iterable_of_multipliers(self, c_list):
        g = triangle()
        swept = c_sweep(g, c_list)
        assert repr(swept) == repr(c_sweep(triangle(), [1.0, 2.0]))
        assert type(swept.c_used) is float and swept.c_used == 1.0  # every value ties, and the smallest wins
        assert sorted(kept(g)) == [1.0, 2.0]

    def test_repeated_multipliers_peeled_once(self, counted_peels):
        expected = repr(c_sweep(gen_bad_peeling(16, 0.01), [4.0, 2.0, 10.0]))
        g = gen_bad_peeling(16, 0.01)  # a fresh graph, so every multiplier is peeled
        counted_peels.clear()
        swept = c_sweep(g, [4.0, 2.0, 4.0, 10.0, 2.0])
        assert counted_peels == [4.0, 2.0, 10.0]
        assert repr(swept) == expected
        assert swept.c_used == 2.0  # the tie among 2, 4 and 10 still goes to the smallest

    def test_prefix_nesting(self):
        g = random_signed_graph(random.Random(41), max_nodes=12)
        order = peel_order(g, 1.0)
        suffix = order.removal_sequence
        prefixes = [set(suffix[i:]) for i in range(g.n)]
        for bigger, smaller in zip(prefixes, prefixes[1:]):
            assert smaller < bigger
            assert len(bigger - smaller) == 1


def large_graph(seed: int, clique: bool):
    """Mixed-sign random graph above the fork threshold, optionally with a dense clique.

    Without the clique every multiplier returns a different set; with it,
    every multiplier finds the clique, so the whole sweep ties and the
    smallest multiplier must win whichever worker peeled it.
    """
    rng = random.Random(seed)
    n, m = 2000, 8000
    raw = []
    for _ in range(m):
        net = rng.uniform(-1.0, 2.0)
        raw.append((rng.randrange(n), rng.randrange(n), max(net, 0.0), max(-net, 0.0)))
    if clique:
        raw += [(a, b, 3.0, 0.0) for a in range(40) for b in range(a + 1, 40)]
    return build_signed_graph(raw, n=n)


@pytest.fixture
def cpus(monkeypatch):
    """A setter of the CPU count c_sweep sees; it returns the pids of the workers forked since."""
    forked = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)

    def set_cpus(count: int) -> list[int]:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
        forked.clear()
        return forked

    return set_cpus


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def kept(graph) -> dict:
    """The removal orders a graph keeps, as lists by multiplier."""
    return {c: order.tolist() for c, order in graph._orders.items()}


def cold_orders(c_values, build) -> dict:
    """The orders a cold sweep of a freshly built graph would keep for these multipliers."""
    return dict(zip(c_values, (order.tolist() for order in peeling._peel_orders(build(), list(c_values)))))


SCORINGS = (PeelScoring(), PeelScoring("objective", params=ObjectiveParams(1, 1, 0.5)))


class TestForkedSweep:
    """Cold sweeps: each sweep gets a freshly built graph, which has kept no removal order."""

    @staticmethod
    def graph(tie: bool = False):
        return large_graph(43, clique=tie)

    def test_graph_is_above_the_fork_threshold(self):
        arcs = self.graph().neighbor.shape[0]
        assert arcs * len(DEFAULT_C_LIST) >= peeling._FORK_MIN_ARC_VISITS
        assert arcs * 2 < peeling._FORK_MIN_ARC_VISITS  # two multipliers stay in one process

    def test_orders_match_single_worker(self, cpus):
        c_values = list(DEFAULT_C_LIST)
        cpus(1)
        single = peeling._peel_orders(self.graph(), c_values)
        forked = cpus(3)
        orders = peeling._peel_orders(self.graph(), c_values)
        assert [order.tolist() for order in orders] == [order.tolist() for order in single]
        assert len(forked) == 2
        assert all(order.dtype == np.int64 and not order.flags.writeable for order in orders)
        assert_no_child_left()

    @pytest.mark.parametrize("c_list", [DEFAULT_C_LIST, DEFAULT_C_LIST[::-1]], ids=["default", "reversed"])
    @pytest.mark.parametrize("scoring", SCORINGS, ids=["net_density", "objective"])
    @pytest.mark.parametrize("tie", [False, True], ids=["mixed", "tie"])
    def test_matches_single_worker(self, cpus, c_list, scoring, tie):
        cpus(1)
        single = c_sweep(self.graph(tie), c_list, scoring)
        forked = cpus(3)
        assert repr(c_sweep(self.graph(tie), c_list, scoring)) == repr(single)
        assert len(forked) == 2
        if tie:
            assert single.c_used == min(c_list) and single.nodes >= set(range(40))
        assert_no_child_left()

    def test_small_sweep_does_not_fork(self, cpus):
        forked = cpus(3)
        c_sweep(self.graph(), [1.0, 2.0])
        c_sweep(gen_bad_peeling(16, 0.01))
        assert forked == []

    @pytest.mark.parametrize("failure", ["raises", "short", "killed"])
    def test_failed_worker_is_peeled_again(self, cpus, monkeypatch, failure):
        cpus(1)
        expected = repr(c_sweep(self.graph()))
        cold = cold_orders(DEFAULT_C_LIST, self.graph)
        parent = os.getpid()
        peeled_in_worker = []

        def failing_peel(graph, c=1.0):
            order = peel_order(graph, c)
            if os.getpid() == parent:
                return order
            if failure == "raises":
                raise RuntimeError("worker failure")
            if failure == "killed":
                if peeled_in_worker:  # the worker has written one row
                    os.kill(os.getpid(), signal.SIGKILL)
                peeled_in_worker.append(c)
                return order
            return PeelOrder(order.removal_sequence[1:], order.c)

        monkeypatch.setattr(peeling, "peel_order", failing_peel)
        forked = cpus(2)
        graph = self.graph()
        assert repr(c_sweep(graph)) == expected
        assert len(forked) == 1
        assert kept(graph) == cold  # the failed worker's orders were peeled again, none kept wrong
        assert_no_child_left()

    def test_failure_in_this_process_reaps_workers(self, cpus, monkeypatch):
        parent = os.getpid()

        def failing_peel(graph, c=1.0):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return peel_order(graph, c)

        monkeypatch.setattr(peeling, "peel_order", failing_peel)
        forked = cpus(4)
        with pytest.raises(KeyboardInterrupt):
            c_sweep(self.graph())
        assert len(forked) == 3
        assert_no_child_left()

    def test_bad_multiplier_rejected_before_any_peel(self, cpus, monkeypatch):
        peeled = []
        monkeypatch.setattr(peeling, "peel_order", lambda graph, c=1.0: peeled.append(c))
        forked = cpus(3)
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(NonPositiveCError):
                c_sweep(self.graph(), [*DEFAULT_C_LIST, bad])
        assert peeled == [] and forked == []


class TestKeptOrders:
    """A graph keeps each multiplier's removal order, so later sweeps of it peel only new multipliers."""

    OTHER_PARAMS = PeelScoring("objective", params=ObjectiveParams(0.5, 2, 4))

    @pytest.mark.parametrize(
        "second",
        [
            (DEFAULT_C_LIST, SCORINGS[1]),  # another scoring
            (DEFAULT_C_LIST, OTHER_PARAMS),  # other params
            (DEFAULT_C_LIST[::-1], SCORINGS[0]),  # a permuted list
            ((4.0, 0.1, 4.0, 1.0), OTHER_PARAMS),  # a repeating subset
        ],
        ids=["scoring", "params", "permuted", "subset"],
    )
    def test_warm_sweep_peels_and_forks_nothing(self, cpus, counted_peels, second):
        graph = large_graph(43, clique=False)
        forked = cpus(2)
        c_sweep(graph, DEFAULT_C_LIST, SCORINGS[0])
        assert len(forked) == 1  # cold: the missing multipliers are enough to fork
        assert_no_child_left()
        counted_peels.clear()
        forked = cpus(2)
        c_sweep(graph, *second)
        assert counted_peels == [] and forked == []

    def test_only_new_multipliers_peeled(self, counted_peels):
        graph = gen_bad_peeling(16, 0.01)
        c_sweep(graph, [1, 2])
        assert counted_peels == [1, 2]
        counted_peels.clear()
        c_sweep(graph, [2, 4])
        assert counted_peels == [4]
        assert sorted(kept(graph)) == [1, 2, 4]

    def test_equal_multipliers_share_one_order(self, counted_peels):
        graph = gen_bad_peeling(16, 0.01)
        c_sweep(graph, [2.0])
        warm = c_sweep(graph, [2], PeelScoring())
        assert counted_peels == [2.0]
        assert repr(warm) == repr(c_sweep(gen_bad_peeling(16, 0.01), [2], PeelScoring()))

    def test_missing_multipliers_decide_the_fork(self, cpus, counted_peels):
        graph = large_graph(43, clique=False)
        cpus(2)
        c_sweep(graph, DEFAULT_C_LIST[:5])
        counted_peels.clear()
        forked = cpus(2)
        c_sweep(graph, DEFAULT_C_LIST)  # two missing multipliers stay below the fork threshold
        assert forked == [] and counted_peels == list(DEFAULT_C_LIST[5:])

    @pytest.mark.parametrize("workers", [1, 3], ids=["one_process", "forked"])
    @pytest.mark.parametrize("scoring", SCORINGS, ids=["net_density", "objective"])
    @pytest.mark.parametrize("tie", [False, True], ids=["mixed", "tie"])
    def test_warm_equals_cold(self, cpus, workers, scoring, tie):
        cpus(workers)
        graph = large_graph(43, clique=tie)
        c_sweep(graph, (10.0, 0.5, 2.0), SCORINGS[1] if scoring is SCORINGS[0] else SCORINGS[0])
        warm = c_sweep(graph, DEFAULT_C_LIST, scoring)
        cold = c_sweep(large_graph(43, clique=tie), DEFAULT_C_LIST, scoring)
        assert repr(warm) == repr(cold)
        assert all(type(node) is int for node in warm.nodes)
        assert kept(graph) == cold_orders(DEFAULT_C_LIST, lambda: large_graph(43, clique=tie))
        assert_no_child_left()

    @pytest.mark.parametrize("workers", [1, 4], ids=["one_process", "forked"])
    def test_interrupted_sweep_keeps_nothing(self, cpus, monkeypatch, workers):
        parent = os.getpid()
        calls = []

        def interrupted_peel(graph, c=1.0):
            calls.append(c)
            if os.getpid() == parent and len(calls) == 2:
                raise KeyboardInterrupt
            return peel_order(graph, c)

        monkeypatch.setattr(peeling, "peel_order", interrupted_peel)
        cpus(workers)
        graph = large_graph(43, clique=False)
        with pytest.raises(KeyboardInterrupt):
            c_sweep(graph)
        assert kept(graph) == {}
        assert_no_child_left()
        monkeypatch.setattr(peeling, "peel_order", peel_order)
        cpus(1)
        assert repr(c_sweep(graph)) == repr(c_sweep(large_graph(43, clique=False)))

    def test_concurrent_sweeps_keep_cold_orders(self):
        graph = large_graph(43, clique=False)
        lists = [DEFAULT_C_LIST, DEFAULT_C_LIST[::-1], DEFAULT_C_LIST[2:5], (1.0, 10.0, 1.0)] * 2
        results = [None] * len(lists)

        def sweep(i):
            results[i] = repr(c_sweep(graph, lists[i], SCORINGS[i % 2]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=sweep, args=(i,)) for i in range(len(lists))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for i, c_list in enumerate(lists):
            assert results[i] == repr(c_sweep(large_graph(43, clique=False), c_list, SCORINGS[i % 2]))
        assert kept(graph) == cold_orders(DEFAULT_C_LIST, lambda: large_graph(43, clique=False))
