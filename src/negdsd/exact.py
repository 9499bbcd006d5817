"""Exact machinery for ratio objectives: one Dinkelbach driver.

``exact_dsd`` (density) and ``binary_search_objective`` (the ratio
objective) both maximize ``(P(S) + l1*|S|) / (R(S) + l2*|S|)`` with P, R >= 0
per edge.  Dinkelbach iteration (1967) starts from a given set, sets
q = a/b to the objective of its witness, and looks for a set with
N(S) - q*D(S) > 0 (numerator and denominator); it stops when none is found.

* ``flow`` route, while q <= min P_e/R_e: every reweighted edge b*P_e - a*R_e
  is nonnegative, so one minimum cut answers the step exactly.  The source
  feeds each node its reweighted degree, each node pays 2*(a*l2 - b*l1) to
  the sink, each edge is one arc pair of its reweighted weight both ways;
  the largest source side is the witness, and a cut that finds nothing
  better certifies q as optimal.  The network is built from the program's
  edge columns in numpy, with the flow of every s -> i -> t path pushed
  already, and solved by :class:`~negdsd.flow.Dinic` on flat arc arrays.
  Before the cut, the graph shrinks to its q-core: nodes are dropped while
  their reweighted degree among the survivors is below a*l2 - b*l1, the
  cost of keeping them.  No node of the largest maximizer is ever dropped
  (see ``_max_density_side``), so the cut on the core has the same answer.
* ``peel`` route, past that point: the multi-``c`` peeling sweep on the
  reweighted graph.  Its "nothing better" is no certificate, so the search
  then ends flagged inexact.

``exact_dsd`` and ``dsd_decision`` take a :class:`~negdsd.core.SignedGraph`
and solve on the float64 net weights ``wpos - wneg`` of its pairs, which
must all be >= 0: Goldberg's (1984) case of the problem.
``exact_dsd`` starts near the optimum, so the q-core is small: a bulk peel
over the edge columns (every node of degree at most 2(1 + eps) times the
density leaves in one round) finds a set B, and the start is the better,
in exact value, of B and the best prefix of one c=1 peel (the warm start
of Greedy++) of the q-core at B's value.  That peel is the package's
column peel on the core's float64 weights: the cuts certify any start,
so it needs no exact arithmetic.  Only the core is peeled, because a c=1
peel of the whole graph removes the nodes outside it first, so the start
is never worse than that peel's best prefix (see ``_density_start``); on
a planted dense set B is that set, and one cut on it certifies it.
The exact program is built only on B and a superset S of that q-core,
pruned first in float64 columns (``_float_core``): q is bounded below by
a float a few ulps under B's density, every round sums each survivor's
degree afresh from nonnegative terms (a bincount per end column, added),
and a node is dropped only when that degree is below the bound times
1 - delta, a margin that covers every rounding of the sum and of the
weights' conversion.  So no core node is ever dropped.  The rounds stop
once one drops fewer than 1/8 of the survivors (a path hanging off the
core would otherwise shed one end per round), and the exact q-core, run
on the program of G[S + B] with ids relabeled in ascending order,
finishes the prune: it is the core of the whole graph, so the start, the
cuts and the answer are those of the whole program.  One degree pass
reads the whole edge list: the prune's first round takes the bulk peel's
first, B's density comes from the weights its round kept, and the answer
is re-scored from the program.  ``dsd_decision`` prunes likewise at g.
``binary_search_objective`` starts from the best prefix S0 of one float c=1
peel in objective scoring when V < S0 <= ``q_max`` in exact value (V: all
nodes), and from V otherwise or once a step from S0 passes ``q_max``; when
every step is a cut, both starts end on V's answer, the largest optimal set.

P, R, l1 and l2 are scaled to integers once by their common denominator.
Every finite float is a dyadic rational, so this is always exact (the
float64 columns are split with ``np.frexp`` at once), and q is a
:class:`~fractions.Fraction`: no step ever rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from . import peeling
from .core import (
    DsdResult,
    ObjectiveParams,
    SignedGraph,
    TIE_TOLERANCE,
    _check_objective_range,
    _csr,
    _induced_edges,
    _is_finite_real,
    _sequential_sum,
    build_signed_graph,  # noqa: F401  re-exported; callers may look it up here
    objective_f,  # noqa: F401  re-exported; callers may look it up here
    tilde_weights,
)
from .errors import (
    BadParametersError,
    EmptySetError,
    NegativeWeightError,
    TooLargeError,
)
from .flow import Dinic

MAX_BRUTE_FORCE_NODES = 22

# Slack of the bulk peel that seeds exact_dsd's start: each round drops the
# nodes of degree at most 2(1 + eps) times the survivors' density, so its
# densest round is within a factor 2 + 2*eps of the optimum after
# O(log(n)/eps) rounds (Bahmani, Kumar and Vassilvitskii, VLDB 2012).
_BULK_EPSILON = 0.1

# The float prune ahead of the exact program stops after a round that drops
# fewer than this share of the survivors: the exact q-core finishes the job,
# and a long tail of small rounds (a path peeled one end at a time) costs a
# whole-graph degree pass each.
_PRUNE_STOP_FRACTION = 1 / 8


@dataclass(frozen=True, slots=True)
class DecisionOutcome:
    """Answer to a density >= g query; the witness achieves it when feasible."""

    feasible: bool
    witness: frozenset[int] | None = None


@dataclass(frozen=True, slots=True)
class SearchTrace:
    """Bounds after each Dinkelbach step, and the route ("flow"/"peel") of each.

    ``lo_history`` starts at the objective of the start set.
    ``hi_history`` stays at ``objective_upper_bound`` until a flow step
    certifies the optimum, and then equals it.
    """

    iterations: int
    lo_history: list[float]
    hi_history: list[float]
    exact: bool
    routes: list[str]

    @property
    def lo(self) -> float:
        return self.lo_history[-1]

    @property
    def hi(self) -> float:
        return self.hi_history[-1]


def _integer_ratios(values: list) -> list[tuple[int, int]]:
    """Exact (numerator, denominator) of each finite real number, as Python ints.

    A numpy integer's ratio holds numpy integers, which would overflow once scaled.
    """
    return [(int(a), int(b)) for a, b in (Fraction(x).as_integer_ratio() for x in values)]


def _exact_column(values: np.ndarray) -> tuple[int, Callable[[int], np.ndarray]]:
    """The lcm of the denominators of a float64 column of finite values, and
    a map from any multiple ``s`` of it to the values times ``s``, as an
    object array of Python ints.

    The column is split at once by ``np.frexp``: a finite double is
    M * 2**E with |M| < 2**53, and dropping the trailing zero bits of M
    leaves it odd (or 0, then with E = 0), the form ``as_integer_ratio``
    reduces to.  So its denominator is 2**max(-E, 0), and for s = t * 2**k
    with t odd the scaled value is (M * t) << (E + k).
    """
    mantissa, exponent = np.frexp(values)
    whole = (mantissa * 2.0**53).astype(np.int64)  # exact: a double has 53 significant bits
    zeros = np.frexp(np.maximum(whole & -whole, 1).astype(np.float64))[1] - 1  # trailing zero bits
    num = (whole >> zeros).astype(object)
    power = np.where(whole != 0, exponent.astype(np.int64) - 53 + zeros, 0)

    def scaled(s: int) -> np.ndarray:
        k = (s & -s).bit_length() - 1
        return (num * (s >> k)) << (power + k).astype(object)

    return 1 << max(0, -int(power.min(initial=0))), scaled


@dataclass(frozen=True, slots=True)
class _RatioProgram:
    """The objective on one integer scale.

    Edge e joins ``u[e]`` and ``v[e]`` (int64 columns) with P_e = ``p[e]``
    and R_e = ``r[e]``, Python ints of any size in object arrays.  The arcs
    of node x are positions ``indptr[x]:indptr[x+1]`` of ``neighbor``,
    ``arc_p`` and ``arc_r``, a loop once, as Python lists: the q-core walks
    them in exact arithmetic.
    """

    n: int
    u: np.ndarray
    v: np.ndarray
    p: np.ndarray
    r: np.ndarray
    indptr: list[int]
    neighbor: list[int]
    arc_p: list[int]
    arc_r: list[int]
    deg_p: list[int]  # loops counted twice
    deg_r: list[int]
    l1: int
    l2: int
    q_max: Fraction | float  # min P_e/R_e over R_e > 0: flow steps stay exact up to it

    def value(self, nodes: Iterable[int]) -> Fraction:
        members = frozenset(nodes)
        induced = _induced_edges(self, members)
        size = len(members)
        return Fraction(self.p[induced].sum() + self.l1 * size, self.r[induced].sum() + self.l2 * size)


def _ratio_program(n, u, v, p_values, r_values, lambda1, lambda2, r_factor=1.0) -> _RatioProgram:
    """Scale edges (u[e], v[e]) with P_e, R_e (R_e multiplied by ``r_factor``) to integers.

    ``u``, ``v`` are int64 arrays and ``p_values``, ``r_values`` float64 arrays.
    The scale is the lcm of the denominators of lambda1, lambda2, every P_e
    and every R_e's times that of ``r_factor``.
    """
    (f_num, f_den), (l1_num, l1_den), (l2_num, l2_den) = _integer_ratios([r_factor, lambda1, lambda2])
    p_den, p_scaled = _exact_column(p_values)
    r_den, r_scaled = _exact_column(r_values)
    scale = math.lcm(l1_den, l2_den, p_den, r_den * f_den)
    p = p_scaled(scale)
    r = r_scaled(scale // f_den) * f_num
    q_num, q_den = 1, 0  # min P_e/R_e, kept as a pair in ints; 1/0 stands for inf
    has_r = r != 0
    for p_e, r_e in zip(p[has_r].tolist(), r[has_r].tolist()):
        if p_e * q_den < q_num * r_e:
            q_num, q_den = p_e, r_e
    l1, l2 = l1_num * (scale // l1_den), l2_num * (scale // l2_den)
    q_max = Fraction(q_num, q_den) if q_den else math.inf
    indptr, neighbor, edge_id = _csr(n, u, v)
    arcs = indptr.tolist(), neighbor.tolist(), p[edge_id].tolist(), r[edge_id].tolist()
    degrees = [[sum(arc_w[a:b]) for a, b in zip(arcs[0], arcs[0][1:])] for arc_w in arcs[2:]]
    loops = u == v  # a loop has one arc and counts twice
    for degree, weights in zip(degrees, (p, r)):
        for x, w_e in zip(u[loops].tolist(), weights[loops].tolist()):
            degree[x] += w_e
    return _RatioProgram(n, u, v, p, r, *arcs, *degrees, l1, l2, q_max)


def _induced_columns(
    n: int, u: np.ndarray, v: np.ndarray, nodes
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u', v', keep): the edges (u[e], v[e]) with both ends in ``nodes`` (ascending
    ids of 0..n-1), relabeled so that ``nodes[i]`` becomes i, and their mask."""
    label = np.full(n, -1, dtype=np.int64)
    label[nodes] = np.arange(len(nodes))
    u, v = label[u], label[v]
    keep = (u >= 0) & (v >= 0)
    return u[keep], v[keep], keep


def _q_core(program: _RatioProgram, a: int, b: int, cost: int) -> tuple[list[int], list[int]]:
    """Nodes left after repeatedly dropping those whose reweighted degree is below ``cost``.

    Returns the survivors and a list holding each survivor's reweighted
    degree b*P - a*R within them (loops counted twice).
    """
    degree = [b * p - a * r for p, r in zip(program.deg_p, program.deg_r)]
    alive = [d >= cost for d in degree]
    stack = [u for u in range(program.n) if not alive[u]]
    indptr, neighbor, arc_p, arc_r = program.indptr, program.neighbor, program.arc_p, program.arc_r
    while stack:
        u = stack.pop()
        for i in range(indptr[u], indptr[u + 1]):
            v = neighbor[i]
            if alive[v]:
                degree[v] -= b * arc_p[i] - a * arc_r[i]
                if degree[v] < cost:
                    alive[v] = False
                    stack.append(v)
    return [u for u in range(program.n) if alive[u]], degree


def _max_density_side(program: _RatioProgram, q: Fraction) -> list[int]:
    """Largest S maximizing N(S) - q*D(S), by one minimum cut (may be empty).

    Needs q <= ``q_max``, so every reweighted edge b*P_e - a*R_e is >= 0.
    The cut runs on the q-core only: a node u of the largest maximizer S
    has reweighted degree at least its cost a*l2 - b*l1 within S, or
    dropping u would give a larger value (a loop at u counts twice in its
    degree but once in the value, so the test errs towards keeping u).
    Degrees within supersets of S are no smaller, so no node of S is ever
    dropped, and the cut on the core finds the same S.  When q*l2 <= l1
    every node gains by joining, its sink arcs have capacity 0, and all
    nodes are returned.

    The network is built from the columns ``u``, ``v``, ``p`` and ``r``
    with no loop over edges: the core is relabeled through one label
    array, and each non-loop edge of positive reweighted weight w inside it
    becomes one arc pair of capacity w both ways (object arrays, so w stays
    an exact int).  Each node's sink arc comes first among its arcs, then
    its source arc, then its edges.  min(supply, drain) is pushed along
    every s -> i -> t path before the solver starts, which does the work of
    Dinic's first phase.  The witness is the complement of the residual
    sink side, the same set for every maximum flow, so neither the arc
    order nor the pre-push can change it.
    """
    a, b = q.numerator, q.denominator
    cost = a * program.l2 - b * program.l1
    core, degree = _q_core(program, a, b, cost)
    k = len(core)
    source, sink = k, k + 1
    nodes = np.arange(k)
    u, v, keep = _induced_columns(program.n, program.u, program.v, core)
    w = b * program.p[keep] - a * program.r[keep]
    edge = (w > 0) & (u != v)  # loops act through degrees only
    supply = np.array([degree[x] for x in core], dtype=object)
    drain = max(2 * cost, 0)
    pushed = np.minimum(supply, drain)  # already flows along each s -> i -> t
    sinks = (nodes, np.full(k, sink), drain - pushed, pushed)
    sources = (np.full(k, source), nodes, supply - pushed, pushed)
    edges = (u[edge], v[edge], w[edge], w[edge])
    net = Dinic(k + 2, *map(np.concatenate, zip(sinks, sources, edges)))
    net.max_flow(source, sink)
    return np.asarray(core, dtype=np.int64)[~net.residual_sink_side(sink)[:k]].tolist()


def _degrees(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Float degrees of nodes 0..n-1 over edges (u[e], v[e]) of float weights ``w``.

    Two ``np.bincount`` calls, one per end column, each sum their terms from
    0.0, and the two sums are added: a loop counts twice.
    """
    return np.bincount(u, w, n) + np.bincount(v, w, n)


def _bulk_peel(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Nodes of the densest round of a bulk peel of float weights ``w`` on edges (u[e], v[e]),
    the weights of the edges they induce (in edge order), and the first round's degrees.

    Each round drops every node whose degree among the survivors is at most
    2(1 + ``_BULK_EPSILON``) times their density.
    """
    alive = np.ones(n, dtype=bool)
    best, best_w, best_density = alive, w, -math.inf
    size, first = n, _degrees(n, u, v, w)
    while size:
        density = w.sum() / size
        if density > best_density:
            best, best_w, best_density = alive, w, density
        degrees = first if size == n else _degrees(n, u, v, w)  # every later round has dropped a node
        drop = alive & (degrees <= 2 * (1 + _BULK_EPSILON) * density)
        if not drop.any():  # rounding (subnormal weights) can keep every degree above the bound
            break
        alive = alive & ~drop
        size = int(alive.sum())
        keep = alive[u] & alive[v]
        u, v, w = u[keep], v[keep], w[keep]
    return np.flatnonzero(best).tolist(), best_w, first


def _density_floor(weights: np.ndarray, size: int) -> float:
    """A float at most the exact density of ``size`` nodes whose induced edges
    weigh ``weights``: float64 values, each the nearest to an exact weight >= 0.

    Three roundings of at most half an ulp each part the float quotient from
    the exact one: the weights' conversion (exact for floats), ``math.fsum``
    (exact below the normal range) and the division.  Each step down moves
    at least one ulp, whatever the sign.
    """
    q = math.fsum(weights.tolist()) / size
    for _ in range(4):
        q = math.nextafter(q, -math.inf)
    return q


def _density_start(program: _RatioProgram, weights: np.ndarray, bulk: list[int]) -> list[int]:
    """A nonempty start for ``exact_dsd`` at least as dense as the best prefix of a c=1 peel.

    B = ``bulk``, the densest round of a bulk peel (``_bulk_peel``), gives
    q = value(B).  The c=1 peel of the whole graph removes every node
    outside the exact q-core first: among survivors that still include one,
    the least degree is below q, and every core node has degree at least q
    within the core.  While it does, the density stays at most q, or, once
    above q, keeps rising, since each removed node takes less than q away.
    So that peel's best prefix is no better than B or is a prefix of the
    same peel of the core alone, and only the core is peeled:
    :func:`~negdsd.peeling.peel_order` and
    :func:`~negdsd.peeling.best_prefix` on its float64 weights ``weights``
    (those of the program's edges, which are distinct pairs with u <= v, as
    in the :class:`SignedGraph` the program was taken from; the ascending
    relabel keeps both).  The cuts certify whatever start they get, so the
    float peel needs no exact arithmetic; only the choice between its
    prefix and B compares exact values.  The program may be that of any induced subgraph holding
    B and the q-core.
    """
    q = program.value(bulk)
    a, b = q.numerator, q.denominator
    nodes, _ = _q_core(program, a, b, a * program.l2 - b * program.l1)
    u, v, keep = _induced_columns(program.n, program.u, program.v, nodes)
    w = weights[keep]
    graph = SignedGraph(len(nodes), u, v, w, np.zeros_like(w))
    prefix = peeling.best_prefix(graph, peeling.peel_order(graph), peeling.PeelScoring()).nodes
    peeled = [nodes[i] for i in prefix]
    return peeled if program.value(peeled) > q else bulk


def _dinkelbach(
    program: _RatioProgram,
    start: Iterable[int],
    peel: Callable[[Fraction], Iterable[int]] | None = None,
    q: Fraction | None = None,
) -> tuple[Iterable[int], bool, list[Fraction], list[str]]:
    """Return (witness, exact, q at the start and after each step, routes).

    ``start`` is a nonempty set whose value is the first q; ``peel(q)``
    proposes a set for steps past ``q_max``, and with no ``peel`` the driver
    stops, inexact, at the first such step; ``q``, when given, is the first q.
    """
    best = start
    q = program.value(best) if q is None else q
    history = [q]
    routes: list[str] = []
    while True:
        route = "flow" if q <= program.q_max else "peel"
        routes.append(route)
        if route == "peel" and peel is None:
            return best, False, history, routes
        side = _max_density_side(program, q) if route == "flow" else peel(q)
        value = program.value(side)
        history.append(max(value, q))
        if value <= q:
            if route == "flow":
                return side, True, history, routes  # the largest optimal set
            return best, False, history, routes
        best, q = side, value


def _validate_nonnegative(graph: SignedGraph) -> np.ndarray:
    """The pairs' net weights ``wpos - wneg``, checked to be >= 0; the graph's
    constructor has checked that they are finite and their total fits a float.
    With no negative weight that is ``wpos`` itself, up to the sign of a zero."""
    if graph.total_neg == 0:
        return graph.wpos
    net = graph.wpos - graph.wneg
    negative = net < 0
    if negative.any():  # the first negative pair decides the error
        e = int(negative.argmax())
        raise NegativeWeightError(int(graph.u[e]), int(graph.v[e]), net[e].item())
    return net


def _density_program(graph: SignedGraph, weights: np.ndarray, nodes=None) -> tuple[_RatioProgram, np.ndarray]:
    """The density program of edge weights ``weights`` (float64, >= 0) on the
    subgraph induced by ``nodes`` (ascending; all by default), ``nodes[i]``
    as node i, and its edges' weights."""
    n, u, v, w = graph.n, graph.u, graph.v, weights
    if nodes is not None and len(nodes) < n:
        u, v, keep = _induced_columns(n, u, v, nodes)
        n, w = len(nodes), w[keep]
    return _ratio_program(n, u, v, w, np.zeros(w.shape[0]), 0, 1), w


def _float_core(
    graph: SignedGraph, weights: np.ndarray, q_lo: float, keep: list[int], degrees: np.ndarray
) -> np.ndarray:
    """Ascending ids of ``keep`` and of a superset of the exact q-core, for
    any exact q >= ``q_lo``, pruned in float64 rounds.

    ``weights`` holds the graph's net weights, all >= 0, which the exact
    program takes as they are, and ``degrees`` the whole graph's degrees
    (``_degrees``), which the first round takes.  Each later round sums
    every survivor's degree afresh over the surviving edges, from nonnegative
    terms only, so the float degree is at least the exact one times
    1 - delta, where delta = (2m + 4) * 2**-52 covers the rounding of up to
    2m terms and that of the threshold q_lo * (1 - delta), with room to
    spare; below the normal range sums are exact.  A node is dropped only
    when its float degree is below that threshold.  A node of the exact q-core has exact
    degree at least q >= q_lo among any survivors that hold the core, so
    it is never dropped, and stopping after any round leaves a superset.
    Rounds stop once one drops fewer than ``_PRUNE_STOP_FRACTION`` of the
    survivors.  Nothing is pruned when ``q_lo`` is not positive.  The
    q-core of the subgraph the returned ids induce is that of the whole
    graph: it holds the core, in which every node keeps its degree.
    """
    n, u, v, w = graph.n, graph.u, graph.v, weights
    alive = np.ones(n, dtype=bool)
    threshold = q_lo * (1 - (2 * graph.m + 4) * 2.0**-52)
    size = n if q_lo > 0 else 0
    while size:
        if size < n:  # every later round has dropped a node
            degrees = _degrees(n, u, v, w)
        drop = alive & (degrees < threshold)
        dropped = int(np.count_nonzero(drop))
        alive &= ~drop
        if dropped < size * _PRUNE_STOP_FRACTION:
            break
        size -= dropped
        survive = alive[u] & alive[v]
        u, v, w = u[survive], v[survive], w[survive]
    alive[keep] = True
    return np.flatnonzero(alive)


def dsd_decision(graph: SignedGraph, g: float) -> DecisionOutcome:
    """Decide exactly, by one minimum cut, whether some nonempty S has w(S)/|S| >= g,
    w being the net weight ``wpos - wneg`` of each pair.

    Raises :class:`NegativeWeightError` on any negative net weight.
    """
    weights = _validate_nonnegative(graph)
    if not _is_finite_real(g):
        raise BadParametersError(f"density threshold must be finite, got {g}")
    degrees = _degrees(graph.n, graph.u, graph.v, weights)
    nodes = _float_core(graph, weights, g, [], degrees)  # g is exact: the cut runs at Fraction(g)
    program, _ = _density_program(graph, weights, nodes)
    witness = _max_density_side(program, Fraction(g))
    if witness:
        return DecisionOutcome(True, frozenset(nodes[witness].tolist()))
    return DecisionOutcome(False, None)


def exact_dsd(graph: SignedGraph) -> DsdResult:
    """True maximizer of w(S)/|S| over nonempty S, w being the net weight
    ``wpos - wneg`` of each pair; ties go to the largest set.

    Raises :class:`NegativeWeightError` on any negative net weight.
    Dinkelbach iteration starts from the denser, in exact value, of a bulk
    peel's best round and the best prefix of one float c=1 peel of that
    round's q-core, and every step is a minimum cut, so the answer is
    always exact whatever the start.  The exact program is built only on
    the bulk round and a float-pruned superset of its q-core.
    """
    weights = _validate_nonnegative(graph)
    if graph.n == 0:
        raise EmptySetError("graph has no nodes")
    bulk, bulk_weights, degrees = _bulk_peel(graph.n, graph.u, graph.v, weights)
    kept = _float_core(graph, weights, _density_floor(bulk_weights, len(bulk)), bulk, degrees)
    program, kept_weights = _density_program(graph, weights, kept)
    start = _density_start(program, kept_weights, np.searchsorted(kept, bulk).tolist())
    best, _, _, _ = _dinkelbach(program, start)
    nodes = frozenset(kept[list(best)].tolist())
    w_float = _sequential_sum(kept_weights[_induced_edges(program, frozenset(best))])  # in graph edge order
    return DsdResult(
        nodes=nodes,
        net_density=w_float / len(nodes),
        wpos_total=w_float,
        wneg_total=0.0,
        exact=True,
        algorithm="exact_dsd",
    )


def brute_force(graph: SignedGraph, params: ObjectiveParams | None = None) -> DsdResult:
    """Exhaustive maximizer over all nonempty subsets (n <= 22).

    Maximizes net density, or the ratio objective of ``params`` when they
    are given.  Ties within ``TIE_TOLERANCE`` resolve to the
    lexicographically smallest sorted node tuple.  This is the reference
    oracle the rest of the test suite leans on, so it stays independent of
    every solver above.
    """
    n = graph.n
    if n == 0:
        raise EmptySetError("graph has no nodes")
    if n > MAX_BRUTE_FORCE_NODES:
        raise TooLargeError(f"brute force capped at n={MAX_BRUTE_FORCE_NODES}, got {n}")
    if params is not None:
        _check_objective_range(graph, params)
    masks = np.arange(1, 2**n, dtype=np.int64)
    sizes = np.bitwise_count(masks).astype(np.float64)
    wpos = np.zeros(masks.shape[0], dtype=np.float64)
    wneg = np.zeros(masks.shape[0], dtype=np.float64)
    for u, v, ew_pos, ew_neg in graph.rows():
        both = ((masks >> u) & (masks >> v) & 1).astype(bool)
        if ew_pos:
            wpos[both] += ew_pos
        if ew_neg:
            wneg[both] += ew_neg
    if params is None:
        values = (wpos - wneg) / sizes
    else:
        values = (wpos + params.lambda1 * sizes) / (params.risk_tolerance * wneg + params.lambda2 * sizes)
    top = values.max()
    tied = np.flatnonzero(values >= top - TIE_TOLERANCE)
    best_mask = min((int(masks[i]) for i in tied), key=_mask_nodes)
    nodes = frozenset(_mask_nodes(best_mask))
    return DsdResult.evaluate(
        graph,
        nodes,
        algorithm="brute_force",
        exact=True,
        params=params,
    )


def _mask_nodes(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if (mask >> i) & 1)


def binary_search_objective(
    graph: SignedGraph,
    params: ObjectiveParams,
) -> tuple[DsdResult, SearchTrace]:
    """Maximize the ratio objective with the Dinkelbach driver.

    Steps are exact minimum cuts while q <= min wpos/(rt*wneg), where the
    reweighted graph stays nonnegative; past it they reweight with
    :func:`tilde_weights` and peel, and the result is flagged inexact.  The
    driver starts from a c=1 peel's best prefix when that is better than the
    whole node set and at most ``q_max``, and starts over from the whole set
    if a step then passes ``q_max``: the answer is the whole set's, in fewer
    cuts (47 ms against 107 ms on a planted 2,000-node graph, ``BENCH_21.json``).
    The returned set is a real witness re-scored under the true objective, so
    it never overestimates.  The name predates the driver, which replaced a
    bisection; it stays so existing callers keep working.
    """
    if graph.n == 0:
        raise EmptySetError("graph has no nodes")
    upper = _check_objective_range(graph, params)
    rt = params.risk_tolerance
    program = _ratio_program(graph.n, graph.u, graph.v, graph.wpos, graph.wneg, params.lambda1, params.lambda2, rt)

    def peel(q: Fraction) -> frozenset[int]:
        reweighted = tilde_weights(graph, float(q), rt)
        return peeling.c_sweep(reweighted, peeling.DEFAULT_C_LIST, peeling.PeelScoring()).nodes

    answer = None
    whole = program.value(range(graph.n))
    if whole <= program.q_max:  # a warm start that all cuts answer ends on the whole set's answer
        scoring = peeling.PeelScoring("objective", params=params)
        prefix = peeling.best_prefix(graph, peeling.peel_order(graph), scoring).nodes
        first = program.value(prefix)
        if whole < first <= program.q_max:
            answer = _dinkelbach(program, prefix, q=first)
    if answer is None or not answer[1]:  # no warm start, or it reached a peel step
        answer = _dinkelbach(program, range(graph.n), peel, q=whole)
    nodes, exact, history, routes = answer
    lo_history = [float(q) for q in history]
    hi_history = [upper] * len(history)
    if exact:
        hi_history[-1] = lo_history[-1]
    result = DsdResult.evaluate(graph, nodes, algorithm="binary_search", exact=exact, params=params)
    return result, SearchTrace(len(routes), lo_history, hi_history, exact, routes)
