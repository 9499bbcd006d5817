"""Signed-graph construction, induced weights, objective, and reweighting."""

import itertools
import math
import random
import re
import sys
import threading
import warnings
from decimal import Decimal
from fractions import Fraction

import pytest

import numpy as np

from negdsd import (
    ObjectiveParams,
    SignedGraph,
    build_multilayer_graph,
    build_signed_graph,
    gen_bad_peeling,
    induced_weights,
    objective_f,
    objective_upper_bound,
    tilde_weights,
)
from negdsd.errors import (
    BadParametersError,
    EmptySetError,
    NegativeMagnitudeError,
    OutOfRangeError,
    UnknownNodeError,
    TooLargeError,
    ZeroDenominatorError,
)
from negdsd.core import EdgeColumns, LayerColumns, _check_node_set
from negdsd.uncertain import bernoulli_graph, build_uncertain_graph

from conftest import naive_best, naive_induced


def triangle() -> SignedGraph:
    return build_signed_graph([(0, 1, 1, 0), (0, 2, 1, 0), (1, 2, 1, 0)])


class TestBuild:
    def test_empty(self):
        g = build_signed_graph([])
        assert g.n == 0
        assert g.m == 0

    def test_parallel_edges_sum_componentwise(self):
        g = build_signed_graph([(1, 2, 1, 0), (1, 2, 0, 0.5)])
        assert g.n == 3
        assert g.m == 1
        assert list(g.rows()) == [(1, 2, 1.0, 0.5)]

    def test_reversed_pair_collapses_too(self):
        g = build_signed_graph([(2, 1, 1, 0), (1, 2, 2, 0.5)])
        assert list(g.rows()) == [(1, 2, 3.0, 0.5)]

    def test_loop_degree_and_handshake(self):
        g = build_signed_graph([(1, 1, 2, 0)])
        assert g.n == 2
        assert g.deg_pos[1] - g.deg_neg[1] == 4.0
        wpos, wneg, _ = induced_weights(g, {1})
        assert wpos == 2.0
        assert sum((g.deg_pos - g.deg_neg).tolist()) == 2 * (g.total_pos - g.total_neg)

    def test_negative_magnitude_rejected(self):
        with pytest.raises(NegativeMagnitudeError):
            build_signed_graph([(0, 1, -1, 0)])
        with pytest.raises(NegativeMagnitudeError):
            build_signed_graph([(0, 1, 0, -0.5)])

    def test_bad_ids_rejected(self):
        with pytest.raises(BadParametersError, match="node ids must be nonnegative integers"):
            build_signed_graph([(-1, 0, 1, 0)])
        with pytest.raises(BadParametersError, match="node ids must be nonnegative integers"):
            build_signed_graph([(0.5, 1, 1, 0)])

    def test_non_finite_weight_rejected(self):
        with pytest.raises(BadParametersError, match=r"edge \(0, 1\) has non-finite weight"):
            build_signed_graph([(0, 1, math.inf, 0.0)])

    def test_ids_of_an_int_subclass_accepted(self):
        g = build_signed_graph([(True, 2, 1.0, 0.0)])
        assert (g.n, list(g.rows())) == (3, [(1, 2, 1.0, 0.0)])
        assert g.u.dtype == np.int64

    def test_negative_n_rejected(self):
        with pytest.raises(BadParametersError, match="n must be a nonnegative integer"):
            build_signed_graph([], n=-1)

    def test_explicit_n_keeps_isolated_nodes(self):
        g = build_signed_graph([(0, 1, 1, 0)], n=5)
        assert g.n == 5
        with pytest.raises(UnknownNodeError):
            build_signed_graph([(0, 7, 1, 0)], n=3)

    @pytest.mark.parametrize("build", [build_signed_graph, build_uncertain_graph, bernoulli_graph])
    @pytest.mark.parametrize(
        "n, error, message",
        [(3, UnknownNodeError, "references node 18446744073709551616 but n=3"), (None, TooLargeError, "got 18446744073709551616")],
        ids=["with_n", "without_n"],
    )
    def test_id_beyond_int64_rejected(self, build, n, error, message):
        with pytest.raises(error, match=message):
            build([(0, 1, 1.0, 0.0), (2**64, 0, 1.0, 0.0)], n=n)

    def test_arc_key_checked_before_any_n_long_array(self):
        with pytest.raises(TooLargeError, match="overflow the 64-bit sort key"):
            build_signed_graph([(0, 1, 1.0, 0.0)], n=2**62)

    def test_collapse_idempotent(self):
        rng = random.Random(7)
        raw = [
            (rng.randint(0, 5), rng.randint(0, 5), rng.random(), rng.random())
            for _ in range(30)
        ]
        once = build_signed_graph(raw)
        twice = build_signed_graph(once.rows(), n=once.n)
        assert list(once.rows()) == list(twice.rows())

    def test_handshake_holds_with_loops(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 8)
            raw = []
            for u in range(n):
                for v in range(u, n):
                    if rng.random() < 0.5:
                        raw.append((u, v, float(rng.randint(0, 3)), float(rng.randint(0, 3))))
            g = build_signed_graph(raw, n=n)
            lhs = sum((g.deg_pos - g.deg_neg).tolist())
            assert math.isclose(lhs, 2 * (g.total_pos - g.total_neg), abs_tol=1e-9)


    def test_first_bad_record_decides_the_error(self):
        negative, bad_id = (0, 1, -1.0, 0.0), (-1, 0, 1.0, 0.0)
        with pytest.raises(NegativeMagnitudeError):
            build_signed_graph([negative, bad_id])
        with pytest.raises(BadParametersError, match="node ids"):
            build_signed_graph([bad_id, negative])

    @pytest.mark.parametrize("build", [build_signed_graph, build_uncertain_graph, bernoulli_graph])
    @pytest.mark.parametrize("record", [(0, 1, 1.0), (0, 1, 1.0, 0.0, 0.0), 5, None])
    def test_record_of_another_shape_rejected(self, build, record):
        bad_id = (-1, 0, 1.0, 0.0)
        with pytest.raises(BadParametersError, match=r"edges must be \(u, v, a, b\) records, got "):
            build([(0, 1, 1.0, 0.0), record])
        with pytest.raises(BadParametersError, match="node ids"):  # the first bad record decides
            build([bad_id, record])

    @pytest.mark.parametrize("build", [build_signed_graph, build_uncertain_graph])
    def test_weight_beyond_float_rejected(self, build):
        huge, negative = (2, 3, 0.0, 10**400), (0, 1, -1.0, 0.0)
        with pytest.raises(BadParametersError, match=r"edge \(2, 3\) has a weight beyond the float range"):
            build([(0, 1, 1.0, 0.0), huge])
        with pytest.raises(BadParametersError, match=r"edge \(2, 3\)"):  # the first bad record decides
            build([huge, negative])
        with pytest.raises(NegativeMagnitudeError if build is build_signed_graph else OutOfRangeError):
            build([negative, huge])
        assert build([(0, 1, 2**1000, 0)]).u.tolist() == [0]  # a large int that a float holds is kept

    @pytest.mark.parametrize("build", [build_signed_graph, build_uncertain_graph, bernoulli_graph])
    @pytest.mark.parametrize(
        "weight", ["x", "1.5", None, 1j, b"1", np.complex128(1), np.array([1.0]), np.str_("1"), Decimal("sNaN")]
    )
    def test_weight_that_is_not_a_number_rejected(self, build, weight):
        bad, negative = (2, 3, 0.0, weight), (0, 1, -1.0, 0.0)
        with pytest.raises(BadParametersError, match=r"edge \(2, 3\) has a weight that is not a real number"):
            build([(0, 1, 1.0, 0.0), bad])
        with pytest.raises(BadParametersError, match=r"edge \(2, 3\)"):  # the first bad record decides
            build([bad, negative])
        with pytest.raises(NegativeMagnitudeError if build is build_signed_graph else OutOfRangeError):
            build([negative, bad])

    @pytest.mark.parametrize("build", [build_signed_graph, build_uncertain_graph])
    def test_real_number_types_accepted(self, build):
        weights = [True, 3, Fraction(1, 4), Decimal("0.5"), np.float32(0.25), np.int64(2), np.True_, np.array(0.5)]
        g = build([(0, 1, w, 0) for w in weights])
        assert (g.wpos if build is build_signed_graph else g.mu).tolist() == [8.5]

    def test_generator_input(self):
        raw = [(0, 1, 1.0, 0.0), (2, 1, 0.5, 0.25), (1, 0, 2.0, 0.0)]
        g = build_signed_graph(record for record in raw)
        assert list(g.rows()) == [(0, 1, 3.0, 0.0), (1, 2, 0.5, 0.25)]

    def test_arc_index_built_on_first_read(self):
        g = build_signed_graph([(2, 0, 1.0, 0.0), (1, 1, 2.0, 0.0), (0, 1, 0.0, 1.0)])
        assert g._index is None
        assert g.indptr.tolist() == [0, 2, 4, 5]
        assert g.neighbor.tolist() == [2, 1, 1, 0, 0]
        assert g.arc_pos.tolist() == [1.0, 0.0, 2.0, 0.0, 1.0]  # the weights of edges 0, 2, 1, 2, 0
        assert g.arc_neg.tolist() == [0.0, 1.0, 0.0, 1.0, 0.0]
        assert g.neighbor is g.neighbor  # built once, then kept

    def test_arc_index_race_stores_equal_arrays(self):
        # threads that build the index at once each store a full, equal one
        def index_of(graph):
            return graph.indptr, graph.neighbor, graph.arc_pos, graph.arc_neg

        rng = random.Random(17)
        raw = [(rng.randrange(300), rng.randrange(300), rng.random(), rng.random()) for _ in range(3000)]
        expected = build_signed_graph(raw)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                g = build_signed_graph(raw)
                seen = []
                threads = [threading.Thread(target=lambda: seen.append(index_of(g))) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads) and len(seen) == 8
                for arrays in seen:
                    for got, want in zip(arrays, index_of(expected)):
                        assert np.array_equal(got, want) and not got.flags.writeable
        finally:
            sys.setswitchinterval(switch)

    def test_arrays_are_read_only(self):
        g = build_signed_graph([(0, 1, 1.0, 0.5), (1, 1, 2.0, 0.0)])
        for name in ("u", "v", "wpos", "wneg", "deg_pos", "deg_neg", "indptr", "neighbor", "arc_pos", "arc_neg"):
            with pytest.raises(ValueError):
                getattr(g, name)[0] = 0

    def test_edges_view_matches_dict_collapse(self):
        rng = random.Random(13)
        for _ in range(50):
            n = rng.randint(1, 12)
            raw = [
                (rng.randrange(n), rng.randrange(n), rng.choice((0.0, rng.random())), rng.random() / 3)
                for _ in range(rng.randint(0, 40))
            ]
            collapsed = {}
            for u, v, wpos, wneg in raw:
                key = (min(u, v), max(u, v))
                if key in collapsed:
                    collapsed[key] = (collapsed[key][0] + wpos, collapsed[key][1] + wneg)
                else:
                    collapsed[key] = (wpos, wneg)
            g = build_signed_graph(raw, n=n)
            rows = list(g.rows())
            assert rows == [(u, v, wpos, wneg) for (u, v), (wpos, wneg) in collapsed.items()]
            assert all(list(map(type, row)) == [int, int, float, float] for row in rows)
            deg_pos, deg_neg = [0.0] * n, [0.0] * n
            for u, v, wpos, wneg in rows:  # degrees add in this order, bit for bit
                for end in (u, v):
                    deg_pos[end] += wpos
                    deg_neg[end] += wneg
            assert (g.deg_pos.tolist(), g.deg_neg.tolist()) == (deg_pos, deg_neg)


def int64(*values):
    return np.array(values, dtype=np.int64)


def float64(*values):
    return np.array(values, dtype=np.float64)


class TestColumns:
    def test_columns_of_the_parsed_types_are_kept_as_they_are(self):
        ids = int64(0, 1, 1, 2)
        values = float64(1.0, 0.5)
        edges = EdgeColumns(ids[0::2], ids[1::2], values, values)
        assert np.shares_memory(edges.u, ids) and edges.a is values and edges.b is values
        layers = LayerColumns(ids[0::2], ids[1::2], int64(0, 0), ("a",))
        assert np.shares_memory(layers.v, ids)

    def test_int32_ids_build_the_int64_graph(self):
        # 700k nodes and 6,000 arcs: the CSR sort key overflows int32
        rng = np.random.default_rng(5)
        n, m = 700_000, 3000
        u, v, a, b = rng.integers(0, n, m), rng.integers(0, n, m), rng.random(m), np.zeros(m)
        wide = build_signed_graph(EdgeColumns(u, v, a, b), n=n)
        narrow = build_signed_graph(EdgeColumns(u.astype(np.int32), v.astype(np.int32), a, b), n=n)
        assert narrow.u.dtype == np.int64
        for name in ("u", "v", "indptr", "neighbor", "arc_pos", "arc_neg"):
            assert np.array_equal(getattr(narrow, name), getattr(wide, name)), name

    def test_float32_weights_become_float64(self):
        a = np.array([0.1, 0.2, 0.3], dtype=np.float32)
        edges = EdgeColumns(int64(0, 1, 0), int64(1, 2, 2), a, a)
        assert edges.a.dtype == edges.b.dtype == np.float64
        graph = build_signed_graph(edges)
        assert graph.wpos.dtype == np.float64
        assert graph.total_pos == build_signed_graph(list(edges)).total_pos == math.fsum(a.tolist())

    def test_unequal_lengths_rejected(self):
        with pytest.raises(BadParametersError, match="EdgeColumns columns must have one length, got u 1, v 2"):
            EdgeColumns(int64(0), int64(1, 2), float64(1.0), float64(0.0))
        with pytest.raises(BadParametersError, match="LayerColumns columns must have one length"):
            LayerColumns(int64(0, 1), int64(1), int64(0, 0), ("a",))

    @pytest.mark.parametrize(
        "column, values, message",
        [
            ("u", float64(0.0), r"EdgeColumns\.u must cast safely to int64, got float64"),
            ("v", np.array([1], dtype=np.uint64), r"EdgeColumns\.v must cast safely to int64"),
            ("a", ["1"], r"EdgeColumns\.a must cast safely to float64"),
            ("b", float64([0.0]), r"EdgeColumns\.b must be a 1-D column, got shape \(1, 1\)"),
        ],
    )
    def test_edge_column_of_another_type_or_shape_rejected(self, column, values, message):
        columns = {"u": int64(0), "v": int64(1), "a": float64(1.0), "b": float64(0.0), column: values}
        with pytest.raises(BadParametersError, match=message):
            EdgeColumns(**columns)

    @pytest.mark.parametrize(
        "layer, message",
        [
            (int64(0, 5), r"LayerColumns\.layer codes must be in range\(1\)"),
            (int64(-1, 0), r"LayerColumns\.layer codes must be in range\(1\)"),
            (float64(0.0, 0.0), r"LayerColumns\.layer must cast safely to int64, got float64"),
        ],
    )
    def test_layer_code_that_names_no_layer_rejected(self, layer, message):
        with pytest.raises(BadParametersError, match=message):
            LayerColumns(int64(0, 1), int64(1, 2), layer, ("a",))

    @pytest.mark.parametrize("names", [("a", "a"), ("a", ["b"]), (1, 1.0)], ids=["repeated", "unhashable", "equal"])
    def test_layer_names_that_are_not_distinct_and_hashable_rejected(self, names):
        # a repeated name would count its records under one code only
        with pytest.raises(BadParametersError, match=r"LayerColumns\.names must be distinct hashable names"):
            LayerColumns(int64(0, 1, 0), int64(1, 2, 2), int64(0, 1, 1), names)

    def test_negative_id_in_layer_columns_rejected(self):
        with pytest.raises(BadParametersError, match=r"node ids must be nonnegative integers, got \(0, -1\)"):
            build_multilayer_graph(LayerColumns(int64(0, 0), int64(1, -1), int64(0, 0), ("a",)))


class TestInducedWeights:
    def test_full_triangle(self):
        assert induced_weights(triangle(), {0, 1, 2}) == (3.0, 0.0, 1.0)

    def test_single_node_no_loops(self):
        assert induced_weights(triangle(), {1}) == (0.0, 0.0, 0.0)

    def test_bad_peeling_core(self):
        # The dense core of the peeling trap: triangle plus hub.
        g = gen_bad_peeling(16, 0.01)
        wpos, wneg, density = induced_weights(g, {0, 1, 2, 3})
        assert wpos == pytest.approx(12.03, abs=1e-12)
        assert wneg == 0.0
        assert density == pytest.approx(3.0075, abs=1e-12)
        assert (wpos, wneg) == naive_induced(g, {0, 1, 2, 3})

    def test_errors(self):
        with pytest.raises(EmptySetError):
            induced_weights(triangle(), set())
        with pytest.raises(UnknownNodeError):
            induced_weights(triangle(), {0, 9})

    def test_numpy_integer_ids(self):
        g = build_signed_graph([(0, 1, 1, 0), (1, 2, 0, 2)])
        for nodes in (np.array([0, 1]), [np.int32(0), np.uint8(1)], {np.int64(0), 1}):
            assert induced_weights(g, nodes) == induced_weights(g, {0, 1}) == (1.0, 0.0, 0.5)
            assert objective_f(g, nodes, ObjectiveParams()) == objective_f(g, {0, 1}, ObjectiveParams())
        assert _check_node_set(g, np.arange(3)) == {0, 1, 2}
        assert set(map(type, _check_node_set(g, np.arange(3)))) == {int}

    @pytest.mark.parametrize("bad", [np.int64(3), np.int64(-1), 1.0, np.float64(1.0), "1", None, 2**70])
    def test_ids_that_are_not_nodes_rejected(self, bad):
        with pytest.raises(UnknownNodeError, match=f"node {re.escape(repr(bad))} not in 0..2"):
            induced_weights(triangle(), {0, bad})


class TestObjective:
    def test_triangle_default_params(self):
        assert objective_f(triangle(), {0, 1, 2}, ObjectiveParams()) == 2.0

    def test_mixed_weights_with_risk_tolerance(self):
        g = build_signed_graph([(0, 1, 1, 1), (0, 2, 1, 0), (1, 2, 1, 0)])
        p = ObjectiveParams(lambda1=1, lambda2=1, risk_tolerance=2)
        assert objective_f(g, {0, 1, 2}, p) == pytest.approx(1.2)

    def test_reduces_to_plain_density(self):
        g = triangle()
        p = ObjectiveParams(lambda1=0, lambda2=1, risk_tolerance=1)
        for size in (1, 2, 3):
            for subset in itertools.combinations(range(3), size):
                _, _, density = induced_weights(g, subset)
                assert objective_f(g, subset, p) == density

    def test_param_validation(self):
        with pytest.raises(ZeroDenominatorError):
            ObjectiveParams(lambda2=0)
        with pytest.raises(ZeroDenominatorError):
            ObjectiveParams(lambda2=-1)
        with pytest.raises(BadParametersError):
            ObjectiveParams(lambda1=-0.5)
        with pytest.raises(BadParametersError):
            ObjectiveParams(risk_tolerance=0)
        for bad in (float("nan"), float("inf")):
            for name in ("lambda1", "lambda2", "risk_tolerance"):
                with pytest.raises(BadParametersError):
                    ObjectiveParams(**{name: bad})

    @pytest.mark.parametrize("bad", [10**400, -(10**400), "a", None, 1j])
    @pytest.mark.parametrize("name", ["lambda1", "lambda2", "risk_tolerance"])
    def test_param_with_no_float_value_rejected(self, name, bad):
        with pytest.raises(BadParametersError, match=f"{name} must be finite"):
            ObjectiveParams(**{name: bad})
        assert ObjectiveParams(lambda1=2, lambda2=4).rho == 0.5


class TestTildeWeights:
    def test_substitution(self):
        g = build_signed_graph([(0, 1, 3, 1)])
        reweighted = tilde_weights(g, 2, 1)
        assert isinstance(reweighted, SignedGraph)
        assert list(reweighted.rows()) == [(0, 1, 1.0, 0.0)] and reweighted.total_neg == 0.0

    def test_negative_result_clears_flag(self):
        # a negative value goes to wneg as a magnitude, so total_neg no longer reads 0
        g = build_signed_graph([(0, 1, 3, 1)])
        reweighted = tilde_weights(g, 4, 1)
        assert list(reweighted.rows()) == [(0, 1, 0.0, 1.0)]
        assert reweighted.total_neg == 1.0 and reweighted.wpos[0] - reweighted.wneg[0] == -1.0

    def test_risk_tolerance_folds_into_negative_weight(self):
        g = build_signed_graph([(0, 1, 3, 1)])
        assert list(tilde_weights(g, 4, 0.25).rows()) == [(0, 1, 2.0, 0.0)]

    def test_validation(self):
        g = triangle()
        with pytest.raises(BadParametersError):
            tilde_weights(g, -0.5)
        with pytest.raises(BadParametersError):
            tilde_weights(g, 1.0, risk_tolerance=0)

    @pytest.mark.parametrize("name", ["q", "risk_tolerance"])
    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), -float("inf"), 10**400, "x", None],
        ids=["nan", "inf", "-inf", "10**400", "str", "None"],
    )
    def test_value_that_is_not_a_finite_real_rejected(self, name, bad):
        args = {"q": 1.0, "risk_tolerance": 1.0, name: bad}
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # raised at the boundary, before numpy sees the value
            with pytest.raises(BadParametersError, match=f"^{name} must be finite"):
                tilde_weights(triangle(), **args)

    def test_infinite_scale_forms_no_product_with_a_zero_wneg(self):
        # q * risk_tolerance is inf: the pair with wneg = 0 keeps its value
        # (inf * 0 would be NaN), and only the magnitude that overflows is rejected
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BadParametersError, match="total edge weight inf is too large"):
                tilde_weights(build_signed_graph([(0, 1, 1.0, 0.0), (1, 2, 1.0, 0.5)]), 1e300, 1e10)
            zeros = build_signed_graph([(0, 1, 1.0, 0.0), (1, 2, 0.0, -0.0), (2, 2, -0.0, 0.0)])
            assert repr(list(tilde_weights(zeros, 1e300, 1e10).rows())) == repr(
                [(0, 1, 1.0, 0.0), (1, 2, 0.0, 0.0), (2, 2, -0.0, 0.0)]
            )

    def test_columns_match_the_plain_product(self):
        # with no overflow, every value equals wpos - q*rt*wneg to the sign of a zero
        values = [0.0, -0.0, 0.5, 1 / 3, 5e-324, 1.0, 3.0]
        records = [(0, i + 1, a, b) for i, (a, b) in enumerate(itertools.product(values, repeat=2))]
        g = build_signed_graph(records)
        for q, rt in itertools.product((0.0, -0.0, 2.5, 1e-300, 7.0), (1.0, 0.3, 5e-324)):
            net = g.wpos - q * rt * g.wneg
            reweighted = tilde_weights(g, q, rt)
            assert repr(reweighted.wpos.tolist()) == repr(np.where(net >= 0, net, 0.0).tolist())
            assert repr(reweighted.wneg.tolist()) == repr(np.where(net >= 0, 0.0, -net).tolist())

    def test_net_weighted_rows(self):
        g = build_signed_graph([(0, 1, 3, 1), (1, 1, 0.5, 0), (2, 0, 0, 1)])
        net = g.net_weighted()
        want = [(0, 1, 2.0, 0.0), (1, 1, 0.5, 0.0), (0, 2, 0.0, 1.0)]
        assert list(net.rows()) == list(tilde_weights(g, 1.0).rows()) == want
        assert all(type(u) is int and type(wpos) is float for u, _, wpos, _ in net.rows())
        assert net.u is g.u and not net.wpos.flags.writeable and not net.wneg.flags.writeable


class TestQueryEquivalence:
    """f(S) >= q must match the reweighted density threshold, subset by subset."""

    PARAMS = [
        ObjectiveParams(1, 1, 1),
        ObjectiveParams(0.5, 1, 1),
        ObjectiveParams(2, 1, 2),
        ObjectiveParams(0, 1, 0.25),
    ]
    QUERIES = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0)

    def test_random_small_graphs(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(1, 8)
            raw = []
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.5:
                        w = rng.randint(-2, 2)
                        if w:
                            raw.append((u, v, float(max(w, 0)), float(-min(w, 0))))
            g = build_signed_graph(raw, n=n)
            for params in self.PARAMS:
                for q in self.QUERIES:
                    reweighted = tilde_weights(g, q, params.risk_tolerance)
                    tilde = {(u, v): wpos - wneg for u, v, wpos, wneg in reweighted.rows()}
                    threshold = q * params.lambda2 - params.lambda1
                    for size in range(1, n + 1):
                        for subset in itertools.combinations(range(n), size):
                            inside = set(subset)
                            lhs = objective_f(g, subset, params) >= q
                            total = sum(
                                w for (u, v), w in tilde.items() if u in inside and v in inside
                            )
                            rhs = total >= threshold * size
                            assert lhs == rhs


class TestGlobalBound:
    def test_brute_force_never_exceeds_bound(self):
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(1, 7)
            raw = []
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.6:
                        raw.append((u, v, float(rng.randint(0, 4)), float(rng.randint(0, 4))))
            g = build_signed_graph(raw, n=n)
            for params in TestQueryEquivalence.PARAMS:
                _, best = naive_best(g, "objective", params)
                assert best <= objective_upper_bound(g, params) + 1e-12
