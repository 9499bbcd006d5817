"""Adversarial instance generators and the weight-shift baseline."""

import math
from collections import Counter

import pytest

from negdsd import (
    PeelScoring,
    best_prefix,
    brute_force,
    build_signed_graph,
    c_sweep,
    exact_dsd,
    gen_bad_peeling,
    gen_shift_failure,
    gen_two_component,
    induced_weights,
    peel_order,
    shift_baseline,
)
from negdsd.errors import BadParametersError


class TestBadPeeling:
    @pytest.mark.parametrize("n,eps", [(7, 0.5), (16, 0.01), (25, 0.1)])
    def test_degree_multiset_matches_construction(self, n, eps):
        g = gen_bad_peeling(n, eps)
        w = (n - 4) // 3
        assert g.n == n + 4
        degrees = Counter(round(g.degree(u), 9) for u in range(g.n))
        assert degrees == Counter(
            {
                float(3 * w - n): 1,
                -3.0: n - 2,
                -2.0: 2,
                round(2 * eps + w, 9): 3,
            }
        )

    def test_layout_and_optimum(self):
        g = gen_bad_peeling(16, 0.01)
        best = brute_force(g)
        assert best.nodes == frozenset({0, 1, 2, 3})
        assert best.net_density == pytest.approx((3 * 4 + 3 * 0.01) / 4, abs=1e-12)

    def test_plain_peel_collapses_to_eps_triangle(self):
        g = gen_bad_peeling(16, 0.01)
        result = best_prefix(g, peel_order(g, 1.0), PeelScoring())
        assert result.net_density == pytest.approx(0.01, abs=1e-12)

    def test_validation(self):
        for n, eps in ((6, 0.5), (15, 0.5), (16, 0.0), (16, 1.0), (16, -0.2)):
            with pytest.raises(BadParametersError):
                gen_bad_peeling(n, eps)


class TestTwoComponent:
    def test_clique_degrees(self):
        g = gen_two_component(6, 8, seed=3)
        for u in range(6):
            assert g.degree(u) == 5.0

    def test_clique_only(self):
        g = gen_two_component(10, 0, seed=0)
        assert exact_dsd(g).net_density == pytest.approx(4.5)

    def test_deterministic_per_seed(self):
        a = gen_two_component(4, 10, seed=42)
        b = gen_two_component(4, 10, seed=42)
        assert [(e.u, e.v, e.wpos, e.wneg) for e in a.edges] == [
            (e.u, e.v, e.wpos, e.wneg) for e in b.edges
        ]
        c = gen_two_component(4, 10, seed=43)
        assert [(e.u, e.v) for e in a.edges] != [(e.u, e.v) for e in c.edges] or a.m != c.m

    def test_noise_pairs_can_carry_both_signs(self):
        g = gen_two_component(2, 12, seed=5)
        assert any(e.wpos == 1.0 and e.wneg == 1.0 for e in g.edges)

    def test_noise_degree_averages_to_zero(self):
        total = 0.0
        samples = 0
        for seed in range(40):
            g = gen_two_component(2, 14, seed=seed)
            for u in range(2, g.n):
                total += g.degree(u)
                samples += 1
        assert abs(total / samples) < 0.3

    def test_validation(self):
        with pytest.raises(BadParametersError):
            gen_two_component(1, 5)
        with pytest.raises(BadParametersError):
            gen_two_component(3, -1)


class TestShiftFailure:
    def test_construction_arithmetic(self):
        g = gen_shift_failure(20, 10, 0.01)
        assert g.n == 25
        clique = set(range(5, 25))
        _, _, clique_density = induced_weights(g, clique)
        assert clique_density == pytest.approx(-0.01 * 19 / 2, abs=1e-12)
        _, _, triangle_density = induced_weights(g, {0, 1, 2})
        assert triangle_density == 1.0

    def test_baseline_picks_the_bad_clique(self):
        g = gen_shift_failure(20, 10, 0.01)
        picked = shift_baseline(g)
        assert picked.nodes == frozenset(range(5, 25))
        assert picked.net_density == pytest.approx(-0.095, abs=1e-9)
        assert not picked.exact

    def test_sweep_still_finds_the_triangle(self):
        g = gen_shift_failure(20, 10, 0.01)
        assert c_sweep(g).net_density >= 1.0

    def test_triangle_is_true_optimum_on_small_instance(self):
        g = gen_shift_failure(15, 2, 0.1)
        best = brute_force(g)
        assert best.nodes == frozenset({0, 1, 2})
        assert best.net_density == 1.0

    def test_validation(self):
        with pytest.raises(BadParametersError):
            gen_shift_failure(2, 10, 0.01)
        with pytest.raises(BadParametersError):
            gen_shift_failure(20, 0, 0.01)
        with pytest.raises(BadParametersError):
            gen_shift_failure(20, 10, 10.0)
        with pytest.raises(BadParametersError):
            gen_shift_failure(3, 10, 9.99)  # clique too small to trip the baseline

    @pytest.mark.parametrize(
        "delta, eps, message",
        [(math.nan, 0.1, "delta must be finite, got nan"), (math.inf, 1.0, "delta must be finite, got inf"),
         (10.0, math.nan, "eps must be finite, got nan"), (10.0, math.inf, "eps must be finite, got inf")],
    )
    def test_non_finite_parameter_is_named(self, delta, eps, message):
        with pytest.raises(BadParametersError, match=f"^{message}$"):
            gen_shift_failure(20, delta, eps)


class TestShiftBaseline:
    def test_noop_on_nonnegative_graph(self):
        g = build_signed_graph([(0, 1, 2, 0), (1, 2, 1, 0)])
        baseline = shift_baseline(g)
        reference = exact_dsd(g)
        assert baseline.nodes == reference.nodes
        assert baseline.net_density == reference.net_density
        assert baseline.exact

    def test_shifted_triangle_still_wins_small_case(self):
        g = build_signed_graph([(0, 1, 1, 0), (0, 2, 1, 0), (1, 2, 1, 0), (3, 4, 0, 1)])
        baseline = shift_baseline(g)
        assert baseline.net_density == pytest.approx(1.0)
        assert brute_force(g).net_density == pytest.approx(1.0)
        assert not baseline.exact

    def test_no_edges(self):
        g = build_signed_graph([], n=3)
        assert shift_baseline(g).net_density == 0.0
