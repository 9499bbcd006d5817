"""Exclusion-query rewriting, per-layer densities, and the hard-W guarantee."""

import random
import re
from collections import Counter

import numpy as np
import pytest

from negdsd import (
    ExclusionQuery,
    apply_exclusion,
    brute_force,
    build_multilayer_graph,
    build_signed_graph,
    exact_dsd,
    hard_w,
    layer_count,
    layer_density,
    layer_report,
)
from negdsd.errors import (
    BadParametersError,
    EmptySetError,
    TooLargeError,
    UnknownLayerError,
    UnknownNodeError,
)
from negdsd.multilayer import _induced_records

from conftest import assert_same_signed


def two_layer():
    return build_multilayer_graph([(1, 2, "follow"), (2, 3, "reply")])


def random_multilayer(rng: random.Random, max_nodes=10, layers=("a", "b", "c")):
    n = rng.randint(3, max_nodes)
    edges = []
    target = rng.randint(2, 3 * n)
    while len(edges) < target:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        edges.append((u, v, rng.choice(layers)))
    return build_multilayer_graph(edges, n=n)


# Layer names of mixed hashable types; their str values are distinct.
LAYER_POOL = ("follow", "reply", 7, (1, "x"), None, frozenset({2}), 2.5)


def random_layered_records(rng: random.Random) -> tuple[int, list]:
    """(n, records) with loops and parallel records of the same or other layers."""
    n = rng.randint(1, 10)
    names = rng.sample(LAYER_POOL, rng.randint(1, len(LAYER_POOL)))
    records = []
    for _ in range(rng.randint(0, 30)):
        if records and rng.random() < 0.3:
            u, v, _ = rng.choice(records)
            u, v = rng.choice([(u, v), (v, u)])
        else:
            u = rng.randrange(n)
            v = u if rng.random() < 0.15 else rng.randrange(n)
        records.append((u, v, rng.choice(names)))
    return n, records


def excluded_count(graph, nodes, excluded):
    return sum(layer_count(graph, nodes, layer) for layer in excluded if layer in graph.layers)


class TestApplyExclusion:
    def test_weight_assignment(self):
        signed = apply_exclusion(two_layer(), ExclusionQuery.soft({"follow"}, 5))
        weights = {(u, v): (wpos, wneg) for u, v, wpos, wneg in signed.rows()}
        assert weights == {(1, 2): (0.0, 5.0), (2, 3): (1.0, 0.0)}

    def test_no_exclusion_counts_multiplicity(self):
        multigraph = build_multilayer_graph(
            [(0, 1, "x"), (0, 1, "y"), (1, 2, "x")]
        )
        signed = apply_exclusion(multigraph, ExclusionQuery.soft(set(), 1))
        weights = {(u, v): (wpos, wneg) for u, v, wpos, wneg in signed.rows()}
        assert weights == {(0, 1): (2.0, 0.0), (1, 2): (1.0, 0.0)}

    def test_parallel_excluded_edges_double_the_penalty(self):
        multigraph = build_multilayer_graph([(1, 2, "follow"), (1, 2, "follow")])
        signed = apply_exclusion(multigraph, ExclusionQuery.soft({"follow"}, 5))
        assert list(signed.rows()) == [(1, 2, 0.0, 10.0)]

    def test_unknown_layer(self):
        with pytest.raises(UnknownLayerError):
            apply_exclusion(two_layer(), ExclusionQuery.soft({"quote"}, 1))

    def test_id_beyond_int64_rejected_at_build(self):
        with pytest.raises(TooLargeError, match="got 18446744073709551616"):
            build_multilayer_graph([(0, 2**64, "x")])
        with pytest.raises(UnknownNodeError, match="references node 18446744073709551616 but n=3"):
            build_multilayer_graph([(0, 2**64, "x")], n=3)
        wide = build_multilayer_graph([(0, 2**40, "x")])  # an int64, but beyond the packed pair key
        with pytest.raises(TooLargeError, match=f"got {2**40}"):
            apply_exclusion(wide, ExclusionQuery.soft(set(), 1))

    def test_records_must_have_three_items(self):
        with pytest.raises(BadParametersError, match="edges must be"):
            build_multilayer_graph([(0, 1, "x"), (1, 2)])

    def test_columns(self):
        graph = build_multilayer_graph([(2, 1, "b"), (0, 1, "a"), (2, 1, "b")])
        assert graph.u.tolist() == [2, 0, 2] and graph.v.tolist() == [1, 1, 1]
        assert graph.layer.tolist() == [0, 1, 0]  # codes in order of first appearance
        for column in (graph.u, graph.v, graph.layer):
            assert column.dtype == np.int64 and not column.flags.writeable

    def test_node_count_validated(self):
        edges = [(0, 1, "x"), (1, 2, "y")]
        for n in (2.5, "3", -5):
            with pytest.raises(BadParametersError, match=re.escape(f"n must be a nonnegative integer, got {n!r}")):
                build_multilayer_graph(edges, n=n)
        with pytest.raises(BadParametersError, match=re.escape("n must be a nonnegative integer, got -5")):
            build_multilayer_graph([], n=-5)
        with pytest.raises(UnknownNodeError, match="edge references node 2 but n=2"):
            build_multilayer_graph(edges, n=2)
        with pytest.raises(BadParametersError, match="node ids must be nonnegative integers"):
            build_multilayer_graph([(0, 1.0, "x")])
        assert build_multilayer_graph(edges, n=np.int64(3)).n == 3

    def test_query_validation(self):
        for w in (0, float("nan"), float("inf"), 10**400, "abc", None):
            with pytest.raises(BadParametersError, match="penalty"):
                ExclusionQuery.soft({"follow"}, w)
        hard = ExclusionQuery.hard({"follow"})
        assert hard.mode == "hard" and hard.w is None
        soft = ExclusionQuery.soft({"follow"}, 2)
        assert soft.mode == "soft" and soft.w == 2

    @pytest.mark.parametrize("excluded", [["follow"], ("follow",), {"follow": 0}.keys()], ids=["list", "tuple", "keys"])
    def test_direct_construction_stores_a_frozenset(self, excluded):
        graph = two_layer()
        for w, built in ((2.0, ExclusionQuery.soft({"follow"}, 2.0)), (None, ExclusionQuery.hard({"follow"}))):
            query = ExclusionQuery(excluded, w)
            assert query == built and type(query.excluded) is frozenset
            assert_same_signed(apply_exclusion(graph, query), apply_exclusion(graph, built))
        assert hard_w(graph, excluded) == hard_w(graph, {"follow"})

    @pytest.mark.parametrize("excluded", [None, 3, "follow", [["follow"]]], ids=["none", "int", "str", "unhashable"])
    def test_layers_that_are_not_a_collection_of_names_rejected(self, excluded):
        graph = two_layer()
        for make in (
            lambda: ExclusionQuery(excluded, 2.0),
            lambda: ExclusionQuery.soft(excluded, 2.0),
            lambda: ExclusionQuery.hard(excluded),
            lambda: hard_w(graph, excluded),
        ):
            with pytest.raises(BadParametersError, match="excluded layers"):
                make()


class TestLayerDensity:
    def test_counting(self):
        graph = build_multilayer_graph(
            [(1, 2, "reply"), (2, 3, "reply"), (1, 3, "reply"), (0, 1, "follow")]
        )
        assert layer_density(graph, {1, 2, 3}, "reply") == 1.0
        assert layer_density(graph, {1, 2, 3}, "follow") == 0.0

    def test_errors(self):
        graph = two_layer()
        with pytest.raises(EmptySetError):
            layer_density(graph, set(), "reply")
        with pytest.raises(UnknownLayerError):
            layer_density(graph, {1, 2}, "quote")

    def test_report_rejects_unknown_layers_as_apply_does(self):
        graph = build_multilayer_graph([(0, 1, "reply"), (1, 2, "follow")])
        for query in (ExclusionQuery.soft({"typo"}, 5), ExclusionQuery.hard({"reply", "typo"})):
            with pytest.raises(UnknownLayerError, match=re.escape("layers ['typo'] not present")):
                apply_exclusion(graph, query)
            with pytest.raises(UnknownLayerError, match=re.escape("layers ['typo'] not present")):
                layer_report(graph, {0, 1}, query)

    def test_numpy_integer_ids(self):
        graph = two_layer()
        nodes = np.array([1, 2])
        assert layer_count(graph, nodes, "follow") == 1
        assert layer_density(graph, nodes, "reply") == 0.0
        assert layer_report(graph, nodes) == layer_report(graph, {1, 2})

    def test_layer_densities_sum_to_total(self):
        rng = random.Random(101)
        for _ in range(20):
            graph = random_multilayer(rng)
            nodes = set(rng.sample(range(graph.n), rng.randint(1, graph.n)))
            total = sum(layer_density(graph, nodes, layer) for layer in graph.layers)
            induced = sum(1 for u, v, _ in graph.rows() if u in nodes and v in nodes)
            assert total == pytest.approx(induced / len(nodes))

    def test_ids_near_the_int64_limit(self):
        # no query allocates anything n long: a MultilayerGraph holds no such array
        graph = build_multilayer_graph([(0, 2**50, "x"), (2**50, 2**62, "y")])
        assert layer_count(graph, {0}, "x") == 0
        assert layer_count(graph, {0, 2**50}, "x") == 1
        assert layer_density(graph, {2**50, 2**62}, "y") == 0.5
        assert layer_report(graph, {0, 2**62})["x"]["count"] == 0

    @pytest.mark.parametrize("base", [0, 1000, 2**62, 2**63 - 1 - 600])
    def test_induced_records_match_isin(self, base):
        # sets whose ids span fewer than the 400 records take the lookup table, wider ones np.isin
        rng = np.random.default_rng(base % 1000)
        u, v = base + rng.integers(0, 600, size=(2, 400))
        graph = build_multilayer_graph(zip(u.tolist(), v.tolist(), ["x"] * 400))
        ids = np.unique(np.concatenate([u, v]))
        for size in (1, 2, 5, 50, 200):
            for spread in (ids, ids[: len(ids) // 3], np.array([ids[0], ids[-1]])):
                nodes = frozenset(rng.choice(spread, size=min(size, len(spread)), replace=False).tolist())
                members = np.array(sorted(nodes), dtype=np.int64)
                expected = np.isin(graph.u, members) & np.isin(graph.v, members)
                assert np.array_equal(_induced_records(graph, nodes), expected)
        wide = frozenset((int(ids[0]), 2**63 - 1))
        graph = build_multilayer_graph([(int(ids[0]), 2**63 - 1, "x"), (int(ids[0]), int(ids[0]), "x")])
        assert _induced_records(graph, wide).tolist() == [True, True]
        assert _induced_records(graph, frozenset((int(ids[0]),))).tolist() == [False, True]

    def test_report_includes_signed_view(self):
        graph = build_multilayer_graph(
            [(0, 1, "reply"), (0, 1, "follow"), (1, 2, "reply")]
        )
        query = ExclusionQuery.soft({"follow"}, 5)
        report = layer_report(graph, {0, 1}, query)
        assert report["reply"] == {"count": 1, "density": 0.5, "signed_density": 0.5}
        assert report["follow"]["count"] == 1
        assert report["follow"]["signed_density"] == pytest.approx(-2.5)


class TestHardW:
    def test_formula(self):
        graph = build_multilayer_graph(
            [(i, i + 1, "keep") for i in range(10)] + [(0, 5, "drop")]
        )
        assert hard_w(graph, {"drop"}) == 11

    def test_no_allowed_edges(self):
        graph = build_multilayer_graph([(0, 1, "drop")])
        assert hard_w(graph, {"drop"}) == 1

    def test_optimum_never_induces_excluded_edges(self):
        rng = random.Random(103)
        for _ in range(60):
            graph = random_multilayer(rng, max_nodes=9)
            excluded = {rng.choice(sorted(graph.layers))}
            signed = apply_exclusion(graph, ExclusionQuery.hard(excluded))
            best = brute_force(signed)
            assert excluded_count(graph, best.nodes, excluded) == 0

    def test_soft_penalty_monotone_in_w(self):
        rng = random.Random(107)
        for _ in range(40):
            graph = random_multilayer(rng, max_nodes=9)
            excluded = {rng.choice(sorted(graph.layers))}
            counts = []
            for w in (1.0, 5.0, float(hard_w(graph, excluded))):
                signed = apply_exclusion(graph, ExclusionQuery.soft(excluded, w))
                best = brute_force(signed)
                counts.append(excluded_count(graph, best.nodes, excluded))
            assert counts[0] >= counts[1] >= counts[2] == 0


class TestFlattening:
    def test_empty_exclusion_equals_plain_dsp(self):
        rng = random.Random(109)
        for _ in range(15):
            graph = random_multilayer(rng, max_nodes=8)
            signed = apply_exclusion(graph, ExclusionQuery.soft(set(), 1))
            via_flow = exact_dsd(signed)
            via_enumeration = brute_force(signed)
            assert via_flow.net_density == via_enumeration.net_density


class TestColumnsAgainstRecords:
    """Column paths against plain loops over the records, on 200 random graphs."""

    @staticmethod
    def cases():
        rng = random.Random(113)
        for _ in range(200):
            n, records = random_layered_records(rng)
            graph = build_multilayer_graph(records, n=n)
            excluded = set(rng.sample(sorted(graph.layers, key=str), rng.randint(0, len(graph.layers))))
            nodes = set(rng.sample(range(n), rng.randint(1, n)))
            yield rng, records, graph, excluded, nodes

    def test_edges_give_back_the_records(self):
        for _, records, graph, _, _ in self.cases():
            assert list(graph.rows()) == records
            assert graph.layers == {layer for _, _, layer in records}

    def test_apply_exclusion_equals_a_build_of_the_records(self):
        for rng, records, graph, excluded, _ in self.cases():
            allowed = sum(1 for _, _, layer in records if layer not in excluded)
            for query, penalty in (
                (ExclusionQuery.hard(excluded), float(allowed + 1)),
                (ExclusionQuery.soft(excluded, w := rng.choice([0.5, 3, 1e3])), float(w)),
            ):
                raw = [(u, v, 0.0, penalty) if layer in excluded else (u, v, 1.0, 0.0) for u, v, layer in records]
                assert_same_signed(apply_exclusion(graph, query), build_signed_graph(raw, n=graph.n))

    def test_counts_equal_a_dict_loop(self):
        for _, records, graph, excluded, nodes in self.cases():
            sizes, counts = Counter(), Counter()
            for u, v, layer in records:
                sizes[layer] += 1
                if u in nodes and v in nodes:
                    counts[layer] += 1
            assert hard_w(graph, excluded) == sum(size for layer, size in sizes.items() if layer not in excluded) + 1
            for layer in graph.layers:
                assert layer_count(graph, nodes, layer) == counts[layer]
            query = ExclusionQuery.soft(excluded, 3.0)
            report = layer_report(graph, nodes, query)
            expected = {}
            for layer in sorted(graph.layers, key=str):
                raw = counts[layer] / len(nodes)
                signed = -3.0 * raw if layer in excluded and counts[layer] else raw
                expected[layer] = {"count": counts[layer], "density": raw, "signed_density": signed}
            assert report == expected and list(report) == list(expected)
            assert {type(value) for entry in report.values() for value in entry.values()} <= {int, float}
