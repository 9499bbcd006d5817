"""Moment extraction, conversion to signed graphs, risk reporting, co-star edges."""

import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from negdsd import (
    DEFAULT_C_LIST,
    ObjectiveParams,
    PeelScoring,
    SignedGraph,
    UncertainGraph,
    bernoulli_graph,
    bernoulli_moments,
    build_signed_graph,
    build_uncertain_graph,
    c_sweep,
    induced_weights,
    objective_f,
    risk_profile,
    tmdb_edge,
    uncertain_to_signed,
)
from negdsd.core import EdgeColumns
from negdsd.errors import (
    BadParametersError,
    EmptyFilmographyError,
    EmptySetError,
    OutOfRangeError,
    UnknownNodeError,
)

from conftest import assert_same_signed


class TestBernoulliMoments:
    def test_deterministic_edge_has_zero_variance(self):
        assert bernoulli_moments(1.0, 5.0) == (5.0, 0.0)

    def test_half_probability(self):
        mu, sigma2 = bernoulli_moments(0.5, 2.0)
        assert mu == 1.0
        assert sigma2 == 1.0  # 4 * 0.25

    def test_low_probability(self):
        mu, sigma2 = bernoulli_moments(0.2, 1.0)
        assert mu == pytest.approx(0.2)
        assert sigma2 == pytest.approx(0.16)

    def test_validation(self):
        for p in (0.0, -0.1, 1.5):
            with pytest.raises(OutOfRangeError):
                bernoulli_moments(p, 1.0)
        with pytest.raises(OutOfRangeError):
            bernoulli_moments(0.5, -1.0)

    @staticmethod
    def graph_error(p, w) -> type:
        """The error ``bernoulli_graph`` raises on one record of this p and w."""
        with pytest.raises(Exception) as raised:
            bernoulli_graph([(0, 1, p, w)])
        return raised.type

    @pytest.mark.parametrize(
        "p, w",
        [("x", 1.0), (0.5, None), (1j, 1.0), (0.5, "2"), (10**400, 1.0), (0.5, 10**400)],
        ids=["str-p", "none-w", "complex-p", "str-w", "huge-p", "huge-w"],
    )
    def test_value_that_is_not_a_real_float_rejected(self, p, w):
        with pytest.raises(BadParametersError, match="bernoulli_moments got a (probability|reward)"):
            bernoulli_moments(p, w)
        assert self.graph_error(p, w) is BadParametersError

    @pytest.mark.parametrize("w", [math.nan, math.inf, Decimal("Infinity"), 1e200])
    def test_non_finite_moment_rejected(self, w):
        with pytest.raises(BadParametersError, match="non-finite moments"):
            bernoulli_moments(0.5, w)
        assert self.graph_error(0.5, w) is BadParametersError

    @pytest.mark.parametrize("p", [math.nan, Decimal("NaN"), math.inf])
    def test_nan_or_infinite_probability_out_of_range(self, p):
        with pytest.raises(OutOfRangeError, match="probability"):
            bernoulli_moments(p, 1.0)
        assert self.graph_error(p, 1.0) is OutOfRangeError

    def test_negative_infinite_reward_out_of_range(self):
        with pytest.raises(OutOfRangeError, match="reward"):
            bernoulli_moments(0.5, -math.inf)
        assert self.graph_error(0.5, -math.inf) is OutOfRangeError

    def test_real_number_types_taken_as_floats(self):
        assert bernoulli_moments(Decimal("0.5"), 2.0) == (1.0, 1.0)
        assert bernoulli_moments(Decimal("0.1"), Decimal("3")) == bernoulli_moments(0.1, 3.0)
        for p, w in ((Fraction(1, 2), 2), (np.float32(0.25), np.int64(3)), (True, 5)):
            got = bernoulli_moments(p, w)
            assert got == bernoulli_moments(float(p), float(w))
            assert all(type(x) is float for x in got)
            graph = bernoulli_graph([(0, 1, p, w)])
            assert (graph.mu[0], graph.sigma2[0]) == got

    def test_variance_vanishes_only_at_certainty_or_zero_reward(self):
        for p in (0.1, 0.3, 0.5, 0.9):
            assert bernoulli_moments(p, 2.0)[1] > 0
        assert bernoulli_moments(1.0, 2.0)[1] == 0.0
        assert bernoulli_moments(0.5, 0.0)[1] == 0.0

    def test_variance_peaks_at_half(self):
        peak = bernoulli_moments(0.5, 3.0)[1]
        for p in (0.1, 0.25, 0.4, 0.6, 0.75, 0.9):
            assert bernoulli_moments(p, 3.0)[1] <= peak


class TestConversion:
    def test_identity_mapping(self):
        u = build_uncertain_graph([(0, 1, 5.0, 0.0), (1, 2, 0.17, 0.08)])
        g = uncertain_to_signed(u)
        weights = {(a, b): (wpos, wneg) for a, b, wpos, wneg in g.rows()}
        assert weights == {(0, 1): (5.0, 0.0), (1, 2): (0.17, 0.08)}

    def test_bernoulli_row_composes_with_moments(self):
        u = bernoulli_graph([(0, 1, 0.5, 2.0)])
        g = uncertain_to_signed(u)
        assert list(g.rows()) == [(0, 1, 1.0, 1.0)]

    def test_columns_equal_a_build_of_the_rows(self):
        rng = random.Random(131)
        for _ in range(200):
            n = rng.randint(1, 12)
            raw = []
            for _ in range(rng.randint(0, 30)):
                if raw and rng.random() < 0.3:  # a parallel record, either way round
                    u, v, _, _ = rng.choice(raw)
                    u, v = rng.choice([(u, v), (v, u)])
                else:
                    u = rng.randrange(n)
                    v = u if rng.random() < 0.15 else rng.randrange(n)
                raw.append((u, v, rng.choice([0.0, rng.random() * 3]), rng.choice([0.0, 0.5, rng.random()])))
            graph = build_uncertain_graph(raw, n=n)
            assert_same_signed(uncertain_to_signed(graph), build_signed_graph(graph.rows(), n=graph.n))

    @pytest.mark.parametrize("moments", [(6e307, 0.0), (0.0, 6e307)])
    def test_overflowing_moment_totals_rejected(self, moments):
        with pytest.raises(BadParametersError, match="too large for a float"):
            build_uncertain_graph([(0, 1, 1e308, 0.0), (0, 1, 1e308, 0.0)])  # mu would be inf
        for raw in ([(0, 1, *moments), (0, 1, *moments)], [(0, 1, *moments), (1, 2, *moments)]):
            with pytest.raises(BadParametersError, match="too large for a float"):
                build_uncertain_graph(raw)
        signed = uncertain_to_signed(build_uncertain_graph([(0, 1, *moments)]))  # a built graph converts
        assert (signed.total_pos, signed.total_neg) == moments

    def test_parallel_moments_add(self):
        u = build_uncertain_graph([(0, 1, 1.0, 0.5), (1, 0, 2.0, 0.25)])
        assert (u.m, u.mu.tolist(), u.sigma2.tolist()) == (1, [3.0], [0.75])

    def test_objective_sees_converted_moments(self):
        rng = random.Random(83)
        raw = []
        n = 7
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.6:
                    raw.append((i, j, rng.random() * 2, rng.random()))
        u = build_uncertain_graph(raw, n=n)
        g = uncertain_to_signed(u)
        params = ObjectiveParams(1, 1, 2)
        nodes = set(range(0, n, 2))
        mu = sum(mu for a, b, mu, _ in raw if a in nodes and b in nodes)
        s2 = sum(s2 for a, b, _, s2 in raw if a in nodes and b in nodes)
        k = len(nodes)
        expected = (mu + k) / (2 * s2 + k)
        assert objective_f(g, nodes, params) == pytest.approx(expected, abs=1e-12)

    def test_moment_validation(self):
        with pytest.raises(OutOfRangeError):
            build_uncertain_graph([(0, 1, -0.1, 0.0)])
        with pytest.raises(OutOfRangeError):
            build_uncertain_graph([(0, 1, 0.1, -1.0)])

    @pytest.mark.parametrize("moments", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf), (-math.inf, 0.0)])
    def test_non_finite_moments_rejected(self, moments):
        bad, negative = (2, 3, *moments), (0, 1, -0.1, 0.0)
        with pytest.raises(BadParametersError, match=r"edge \(2, 3\) has non-finite moments"):
            build_uncertain_graph([(0, 1, 1.0, 1.0), bad])
        with pytest.raises(BadParametersError):  # the first bad record decides
            build_uncertain_graph([bad, negative])
        with pytest.raises(OutOfRangeError):
            build_uncertain_graph([negative, bad])

    @pytest.mark.parametrize("p", [0.5, 1.0])
    def test_infinite_bernoulli_reward_rejected(self, p):
        with pytest.raises(BadParametersError, match="non-finite moments"):
            bernoulli_graph([(0, 1, 0.5, 2.0), (1, 2, p, math.inf)])
        with pytest.raises(BadParametersError, match="non-finite moments"):  # w*w overflows
            bernoulli_graph([(0, 1, 0.5, 1e300)])


def random_bernoulli_records(rng: random.Random, n: int, count: int) -> list[tuple[int, int, float, float]]:
    """On/off records over 0..n-1, loops and parallel pairs (either way round) included."""
    records = []
    for _ in range(count):
        u, v = rng.randrange(n), rng.randrange(n)
        p = rng.choice([1.0, 0.5, rng.uniform(1e-9, 1.0)])
        records.append((u, v, p, rng.choice([0.0, 1.0, rng.uniform(0.0, 10.0)])))
    return records


class TestUncertainGraph:
    """An uncertain graph is a signed graph whose weights are the moments."""

    def test_moments_are_the_signed_columns(self):
        g = build_uncertain_graph([(0, 1, 1.0, 0.5), (1, 2, 0.25, 0.0)], n=4)
        assert isinstance(g, SignedGraph) and type(g) is UncertainGraph
        assert g.mu is g.wpos and g.sigma2 is g.wneg
        assert repr(g) == "UncertainGraph(n=4, m=2)" and repr(build_signed_graph(g.rows(), n=4)) == "SignedGraph(n=4, m=2)"
        assert list(g.rows()) == [(0, 1, 1.0, 0.5), (1, 2, 0.25, 0.0)]
        with pytest.raises(AttributeError):
            g.mu = g.wneg

    def test_positional_construction(self):
        columns = [np.array([0, 1]), np.array([1, 1]), np.array([2.0, 1.0]), np.array([0.5, 0.0])]
        g = UncertainGraph(3, *columns)
        assert (g.n, g.m, g.total_pos, g.total_neg) == (3, 2, 3.0, 0.5)
        assert g.deg_pos.tolist() == [2.0, 4.0, 0.0]  # the loop counts twice
        assert g.mu is columns[2] and not g.mu.flags.writeable

    def test_converted_graph_holds_signed_edges(self):
        g = bernoulli_graph([(0, 1, 0.5, 2.0), (1, 2, 1.0, 1.0)])
        signed = uncertain_to_signed(g)
        assert type(signed) is SignedGraph
        assert_same_signed(signed, g)

    def test_sweep_of_the_graph_equals_a_sweep_of_its_conversion(self):
        rng = random.Random(149)
        for _ in range(60):
            g = bernoulli_graph(random_bernoulli_records(rng, rng.randint(1, 14), rng.randint(1, 40)))
            for scoring in (PeelScoring(), PeelScoring(mode="objective", params=ObjectiveParams(1.0, 1.0, rng.choice([0.25, 2.0])))):
                assert repr(c_sweep(g, DEFAULT_C_LIST, scoring)) == repr(c_sweep(uncertain_to_signed(g), DEFAULT_C_LIST, scoring))


class TestBernoulliRecords:
    """Records take the shared intake: checked in order, then converted as columns."""

    def test_records_equal_columns_and_a_per_record_loop(self):
        rng = random.Random(151)
        for _ in range(200):
            n = rng.randint(1, 12)
            records = random_bernoulli_records(rng, n, rng.randint(0, 30))
            built = bernoulli_graph(records, n=n)
            u, v, p, w = (np.array([r[i] for r in records], dtype=np.int64 if i < 2 else np.float64) for i in range(4))
            moments = [(a, b, *bernoulli_moments(p_e, w_e)) for a, b, p_e, w_e in records]
            for other in (bernoulli_graph(EdgeColumns(u, v, p, w), n=n), build_uncertain_graph(moments, n=n)):
                assert_same_signed(built, other)
                assert built.mu.tobytes() == other.mu.tobytes() and built.sigma2.tobytes() == other.sigma2.tobytes()

    @pytest.mark.parametrize("field", [2, 3], ids=["p", "w"])
    @pytest.mark.parametrize("value", ["x", None, "2", 1j, 10**400])
    def test_bad_value_names_the_edge(self, field, value):
        bad = [2, 3, 0.5, 1.0]
        bad[field] = value
        with pytest.raises(BadParametersError, match=r"edge \(2, 3\) has a weight"):
            bernoulli_graph([(0, 1, 0.5, 1.0), tuple(bad)])

    def test_first_bad_record_decides_the_error(self):
        bad_id, not_real, probability = (-1, 0, 0.5, 1.0), (0, 1, "x", 1.0), (0, 1, 2.0, 1.0)
        reward, overflow = (0, 1, 0.5, -1.0), (0, 1, 0.5, 1e300)
        with pytest.raises(BadParametersError, match="node ids"):
            bernoulli_graph([bad_id, probability])
        with pytest.raises(OutOfRangeError, match="probability"):
            bernoulli_graph([probability, bad_id])
        with pytest.raises(BadParametersError, match="not a real number"):
            bernoulli_graph([not_real, reward])
        with pytest.raises(OutOfRangeError, match="reward"):
            bernoulli_graph([reward, not_real])
        with pytest.raises(BadParametersError, match="non-finite moments"):  # w*w overflows
            bernoulli_graph([overflow, probability])
        with pytest.raises(OutOfRangeError, match="probability"):
            bernoulli_graph([probability, overflow])

    def test_real_number_types_accepted(self):
        records = [(0, 1, Decimal("0.5"), Fraction(2)), (1, 2, np.float32(0.25), True), (0, 1, True, np.int64(3))]
        got = bernoulli_graph(records)
        want = bernoulli_graph([(u, v, float(p), float(w)) for u, v, p, w in records])
        assert_same_signed(got, want)
        assert got.mu.tolist() == [4.0, 0.25]


class TestRiskProfile:
    def test_plain_average(self):
        u = build_uncertain_graph([(0, 1, 0.7, 0.1), (1, 2, 0.32, 0.2), (3, 4, 9.0, 9.0)])
        report = risk_profile(u, {0, 1, 2})
        assert report.avg_expected_reward == pytest.approx(1.02 / 3)
        assert report.avg_risk == pytest.approx(0.1)
        assert report.size == 3

    def test_no_induced_edges(self):
        u = build_uncertain_graph([(0, 1, 1.0, 1.0)], n=4)
        report = risk_profile(u, {2, 3})
        assert report == type(report)(0.0, 0.0, 2)

    def test_consistent_with_converted_graph(self):
        rng = random.Random(89)
        raw = [
            (i, j, rng.random(), rng.random())
            for i in range(6)
            for j in range(i + 1, 6)
            if rng.random() < 0.7
        ]
        u = build_uncertain_graph(raw, n=6)
        g = uncertain_to_signed(u)
        nodes = {0, 2, 3, 5}
        wpos, wneg, _ = induced_weights(g, nodes)
        report = risk_profile(u, nodes)
        assert report.avg_expected_reward * report.size == pytest.approx(wpos, abs=1e-12)
        assert report.avg_risk * report.size == pytest.approx(wneg, abs=1e-12)

    def test_errors(self):
        u = build_uncertain_graph([(0, 1, 1.0, 1.0)])
        with pytest.raises(EmptySetError):
            risk_profile(u, set())
        with pytest.raises(UnknownNodeError):
            risk_profile(u, {0, 5})

    def test_numpy_integer_ids(self):
        u = build_uncertain_graph([(0, 1, 0.7, 0.1), (1, 2, 0.32, 0.2)])
        assert risk_profile(u, np.arange(2)) == risk_profile(u, {0, 1})


class TestRiskTolerancePipeline:
    """End-to-end tolerance sweep on an instance with a designed trade-off."""

    def test_higher_tolerance_moves_to_the_safer_cluster(self):
        # The plain c=1 order ranks nodes by net degree and never surfaces the
        # low-risk cluster as a prefix, so this runs the full multiplier sweep.
        from negdsd import DEFAULT_C_LIST, PeelScoring, c_sweep

        # cluster A: high reward, high risk; cluster B: lower reward, tiny risk
        raw = []
        for i in range(4):
            for j in range(i + 1, 4):
                raw.append((i, j, 2.0, 1.0))
        for i in range(4, 10):
            for j in range(i + 1, 10):
                raw.append((i, j, 0.5, 0.01))
        u = build_uncertain_graph(raw, n=10)
        g = uncertain_to_signed(u)
        risks = []
        sizes = []
        for tolerance in (0.25, 1.0, 16.0):
            params = ObjectiveParams(1.0, 1.0, tolerance)
            result = c_sweep(g, DEFAULT_C_LIST, PeelScoring(mode="objective", params=params))
            profile = risk_profile(u, result.nodes)
            risks.append(profile.avg_risk)
            sizes.append(profile.size)
        assert risks == sorted(risks, reverse=True)
        assert risks[-1] < risks[0]
        assert sizes == sorted(sizes)


class TestTmdbEdge:
    def test_full_overlap(self):
        scores = {"m1": 10.0, "m2": 8.0}
        assert tmdb_edge({"m1", "m2"}, {"m1", "m2"}, scores) == (1.0, 14.0)

    def test_disjoint_sets_have_no_edge(self):
        assert tmdb_edge({"a"}, {"b"}, {"a": 5.0, "b": 5.0}) is None

    def test_discount_truncates_at_five(self):
        movies = {f"m{i}" for i in range(7)}
        scores = {m: 1.0 for m in movies}
        p, w = tmdb_edge(movies, movies, scores)
        assert p == 1.0
        assert w == pytest.approx(1.9375)

    def test_jaccard(self):
        scores = {m: 2.0 for m in "abcd"}
        p, _ = tmdb_edge({"a", "b", "c"}, {"b", "c", "d"}, scores)
        assert p == pytest.approx(2 / 4)

    def test_empty_filmographies(self):
        with pytest.raises(EmptyFilmographyError):
            tmdb_edge(set(), set(), {})

    def test_reward_monotone_in_each_score(self):
        base = {"a": 3.0, "b": 2.0, "c": 1.0}
        shared = {"a", "b", "c"}
        _, w0 = tmdb_edge(shared, shared, base)
        for movie in base:
            bumped = dict(base)
            bumped[movie] += 0.5
            _, w1 = tmdb_edge(shared, shared, bumped)
            assert w1 >= w0

    def test_probability_bounds(self):
        rng = random.Random(97)
        universe = [f"m{i}" for i in range(12)]
        scores = {m: 1 + 9 * rng.random() for m in universe}
        for _ in range(50):
            a = {m for m in universe if rng.random() < 0.5}
            b = {m for m in universe if rng.random() < 0.5}
            if not (a | b):
                continue
            edge = tmdb_edge(a, b, scores)
            if edge is not None:
                assert 0 < edge[0] <= 1
