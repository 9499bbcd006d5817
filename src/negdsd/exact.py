"""Exact machinery for ratio objectives: one front end and one Dinkelbach driver.

``exact_dsd`` (density) and ``binary_search_objective`` (the ratio
objective) both maximize ``(P(S) + l1*|S|) / (R(S) + l2*|S|)`` with P, R >= 0
per edge, through one front end, ``_maximize``: density takes P = the net
weights, R = 0 and (l1, l2) = (0, 1), the ratio objective P = wpos and
R = rt*wneg.  Dinkelbach iteration (1967) starts from a given set, sets
q = a/b to the objective of its witness, and looks for a set with
N(S) - q*D(S) > 0 (numerator and denominator); it stops when none is found.

* ``flow`` route, while q <= q_max = min P_e/R_e: every reweighted edge
  w_e = b*P_e - a*R_e is nonnegative (Goldberg's 1984 case), so one minimum
  cut answers the step exactly.  Each cut forms the column w once, from the
  program's edge columns, and reads both its q-core and its network from
  it.  The q-core drops nodes while their degree among the survivors is
  below a*l2 - b*l1, the cost of keeping them (the arcs are listed only
  when one starts below it); no node of the largest maximizer is ever
  dropped (see ``_max_density_side``).  On the core, the source feeds each
  node its degree, each node pays 2*(a*l2 - b*l1) to the sink, and each
  edge is one arc pair of weight w_e both ways, with the flow of every
  s -> i -> t path pushed already; :class:`~negdsd.flow.Dinic` solves it.
  The largest source side is the witness, and a cut that finds nothing
  better certifies q as optimal.
* ``peel`` route, past that point: the multi-``c`` peeling sweep on the
  reweighted graph.  Its "nothing better" is no certificate, so the search
  then ends flagged inexact.

The front end prunes in float64 before it builds anything exact.  q_max
comes from the float quotients P_e/R_e: rounding is monotone, so only the
distinct (P_e, R_e) pairs at the least quotient are compared exactly.  A
bulk peel of P finds a set B, and a float under B's exact objective bounds
every later q from below.  As R >= 0, a node of the largest maximizer at
any q from that floor up to q_max has P-degree at least
q*l2 - l1 >= floor*l2 - l1 within it, so lower P-degrees are pruned in
float64 rounds (``_float_core``).  The exact program is built on the
survivors and B only, and keeps the whole graph's q_max: its q-core at any
such q is the whole graph's, so its cuts and answer are too.  It starts
from the better of B and a c=1 peel's best prefix (``_warm_start``).  When
the optimum is at most q_max every step is a cut, and the run ends on the
largest optimal set.  Otherwise a step passes q_max and the driver starts
over on the whole graph from V, the set of all nodes, with the peel route,
so an inexact answer is V's; it starts there at once when a float floor of
V's objective is above q_max.  ``dsd_decision`` prunes likewise at g.

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

# Slack of the bulk peel that seeds the front end's prune and start: each
# round drops the nodes of degree at most 2(1 + eps) times the survivors'
# density, so its densest round is within a factor 2 + 2*eps of the densest
# set after O(log(n)/eps) rounds (Bahmani, Kumar and Vassilvitskii, VLDB 2012).
_BULK_EPSILON = 0.1

# The float prune ahead of the exact program stops after a round that drops
# fewer than this share of the survivors: the exact q-core finishes the job,
# and a long tail of small rounds (a path peeled one end at a time) costs a
# whole-graph degree pass each.
_PRUNE_STOP_FRACTION = 1 / 8

_Peel = Callable[[Fraction], Iterable[int] | None] | None  # proposes a set for a step past q_max, or None
_DENSITY = ObjectiveParams(0, 1)  # density: (P + 0*|S|) / (R + 1*|S|) with R = 0


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
    certifies the optimum, and then equals it.  A run on the pruned program
    that every cut answered reports its own start and steps, so
    ``lo_history`` and ``iterations`` may be shorter than those of a run
    from the whole node set, which ends on the same answer.
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
    """Exact (numerator, denominator) of each finite real number, as Python ints: a numpy
    integer has no ratio of its own, and a numpy float32 is no ``Fraction`` argument."""
    ratios = (x if hasattr(x, "as_integer_ratio") else Fraction(x) for x in values)
    return [(int(a), int(b)) for a, b in (x.as_integer_ratio() for x in ratios)]


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
    """The objective on one integer scale: its edge columns and size terms.

    Edge e joins ``u[e]`` and ``v[e]`` (int64 columns) with P_e = ``p[e]``
    and R_e = ``r[e]``, Python ints of any size in object arrays.  A step at
    q = a/b reweights them to one column b*P - a*R (``reweighted``),
    from which the q-core and the network are both taken.
    """

    n: int
    u: np.ndarray
    v: np.ndarray
    p: np.ndarray
    r: np.ndarray
    l1: int
    l2: int
    q_max: Fraction | float  # min P_e/R_e over R_e > 0: flow steps stay exact up to it

    def reweighted(self, q: Fraction) -> tuple[np.ndarray, int]:
        """(b*P - a*R, a*l2 - b*l1) at q = a/b; no a*R when q_max is inf, as R is then all zero (density)."""
        a, b = q.numerator, q.denominator
        return (b * self.p if self.q_max == math.inf else b * self.p - a * self.r), a * self.l2 - b * self.l1

    def value(self, nodes: Iterable[int]) -> Fraction:
        members = frozenset(nodes)
        induced = _induced_edges(self, members)
        size = len(members)
        return Fraction(self.p[induced].sum() + self.l1 * size, self.r[induced].sum() + self.l2 * size)


def _q_max(p_values: np.ndarray, r_values: np.ndarray, r_factor) -> Fraction | float:
    """min P_e / (``r_factor`` * R_e) over the edges with R_e > 0, exactly; inf when there is none.

    ``p_values`` and ``r_values`` are float64 columns of values >= 0.  A float
    quotient is the exact one rounded to nearest, which is monotone, so the
    exact minimum is among the edges of the least float quotient; only their
    distinct (P_e, R_e) pairs are compared exactly (integer weights tie a lot).
    """
    has_r = r_values > 0
    if not has_r.any():
        return math.inf
    p, r = p_values[has_r], r_values[has_r]
    with np.errstate(over="ignore"):  # a quotient beyond the float range is inf, still in order
        quotient = p / r
    least = quotient == quotient.min()
    pairs = np.unique(p[least] + 1j * r[least]).tolist()  # each pair exactly, as one complex
    ((f_num, f_den),) = _integer_ratios([r_factor])
    return min(Fraction(z.real) / Fraction(z.imag) for z in pairs) * Fraction(f_den, f_num)


def _ratio_program(n, u, v, p_values, r_values, lambda1, lambda2, r_factor, q_max) -> _RatioProgram:
    """Scale edges (u[e], v[e]) with P_e, R_e (R_e multiplied by ``r_factor``) to integers.

    ``u``, ``v`` are int64 arrays and ``p_values``, ``r_values`` float64 arrays.
    The scale is the lcm of the denominators of lambda1, lambda2, every P_e
    and every R_e's times that of ``r_factor``.  ``q_max`` is the flow bound
    (``_q_max`` of the graph the edges were taken from).
    """
    (f_num, f_den), (l1_num, l1_den), (l2_num, l2_den) = _integer_ratios([r_factor, lambda1, lambda2])
    p_den, p_scaled = _exact_column(p_values)
    r_den, r_scaled = _exact_column(r_values)
    scale = math.lcm(l1_den, l2_den, p_den, r_den * f_den)
    p = p_scaled(scale)
    r = r_scaled(scale // f_den) * f_num
    l1, l2 = l1_num * (scale // l1_den), l2_num * (scale // l2_den)
    return _RatioProgram(n, u, v, p, r, l1, l2, q_max)


def _induced_columns(
    n: int, u: np.ndarray, v: np.ndarray, nodes
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u', v', keep): the edges (u[e], v[e]) with both ends in ``nodes`` (ascending
    ids of 0..n-1), relabeled so that ``nodes[i]`` becomes i, and their mask."""
    inside = np.zeros(n, dtype=bool)
    inside[nodes] = True
    keep = inside[u] & inside[v]
    label = np.cumsum(inside) - 1  # the rank of each node of ``nodes``
    return label[u[keep]], label[v[keep]], keep


def _q_core(program: _RatioProgram, w: np.ndarray, cost: int) -> tuple[list[int], list[int]]:
    """Survivors of repeatedly dropping the nodes of degree below ``cost`` over edges
    weighing ``w`` (a column b*P - a*R >= 0), and a list of each one's degree within
    them, loops counted twice.  The arcs are listed only when some node starts below.
    """
    n, degree = program.n, np.zeros(program.n, dtype=object)
    np.add.at(degree, program.u, w)
    np.add.at(degree, program.v, w)
    degree = degree.tolist()
    alive = [d >= cost for d in degree]
    stack = [x for x in range(n) if not alive[x]]
    if stack:
        indptr, neighbor, arc = _csr(n, program.u, program.v)
        indptr, neighbor, arc_w = indptr.tolist(), neighbor.tolist(), w[arc // 2].tolist()
    while stack:
        x = stack.pop()
        for i in range(indptr[x], indptr[x + 1]):
            y = neighbor[i]
            if alive[y]:
                degree[y] -= arc_w[i]
                if degree[y] < cost:
                    alive[y] = False
                    stack.append(y)
    return [x for x in range(n) if alive[x]], degree


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

    The edges are reweighted once, to the column w = b*P - a*R (an object
    array, so each w_e stays an exact int), which the q-core and the
    network both read, with no loop over edges: the core is relabeled
    through one label array, and each non-loop edge of positive weight w_e
    inside it becomes one arc pair of capacity w_e both ways.  Each node's
    sink arc comes first among its arcs, then its source arc, then its edges.  min(supply, drain) is pushed along
    every s -> i -> t path before the solver starts, which does the work of
    Dinic's first phase.  The witness is the complement of the residual
    sink side, the same set for every maximum flow, so neither the arc
    order nor the pre-push can change it.
    """
    w, cost = program.reweighted(q)
    core, degree = _q_core(program, w, cost)
    k = len(core)
    source, sink = k, k + 1
    nodes = np.arange(k)
    u, v, keep = _induced_columns(program.n, program.u, program.v, core)
    w = w[keep]
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


def _down(x: float) -> float:  # one step down undoes a rounding to nearest of any value >= it
    return math.nextafter(x, -math.inf)


def _up(x: float) -> float:  # one step up undoes a rounding to nearest of any value <= it
    return math.nextafter(x, math.inf)


def _objective_floor(p: np.ndarray, r: np.ndarray, size: int, params: ObjectiveParams) -> float:
    """A float at most the exact objective (P + l1*size) / (rt*R + l2*size) of ``size``
    nodes whose induced edges weigh ``p`` and ``r`` (float64, >= 0).

    A float sum of k terms >= 0, in any order, is within a factor 1 +- k*2**-53
    of the exact one, which 1 -+ delta covers; every other step rounds once,
    and ``_down``/``_up`` undo that.  A step down from inf is finite.
    """
    delta = (max(p.shape[0], r.shape[0]) + 2) * 2.0**-52
    l1, l2, rt = _down(float(params.lambda1)), _up(float(params.lambda2)), _up(float(params.risk_tolerance))
    numerator = _down(_down(float(p.sum()) * (1 - delta)) + _down(l1 * size))
    denominator = _up(_up(rt * _up(float(r.sum()) * (1 + delta))) + _up(l2 * size))
    return _down(max(numerator, 0.0) / denominator)


def _warm_start(
    program: _RatioProgram, p: np.ndarray, r: np.ndarray, bulk: list[int], params: ObjectiveParams
) -> tuple[list[int], Fraction]:
    """The better, in exact value, of ``bulk`` (B) and the best prefix, under the
    objective of ``params``, of a c=1 peel of B's q-core, and its value.

    For density (R = 0), a c=1 peel of the whole graph removes the nodes
    outside the q-core at q = value(B) first: while one is left, the least
    degree is below q, and the density stays at most q or keeps rising.  So
    its best prefix is no better than B or is one of the core's own peel,
    and only the core is peeled, on the float64 weights ``p`` and ``r`` of the
    program's edges (distinct pairs with u <= v, as the ascending relabel
    keeps them).  At params (0, 1, 1) the prefix values are net density's,
    bit for bit.  The cuts certify any start, so the peel needs no exact
    arithmetic; only the choice between its prefix and B is exact.
    """
    q = program.value(bulk)
    if q > program.q_max:  # the driver stops at once; the q-core may be empty
        return bulk, q
    nodes, _ = _q_core(program, *program.reweighted(q))
    u, v, keep = _induced_columns(program.n, program.u, program.v, nodes)
    graph = SignedGraph(len(nodes), u, v, p[keep], r[keep])
    scoring = peeling.PeelScoring("objective", params)
    prefix = peeling.best_prefix(graph, peeling.peel_order(graph), scoring).nodes
    peeled = [nodes[i] for i in prefix]
    value = program.value(peeled)
    return (peeled, value) if value > q else (bulk, q)


def _dinkelbach(
    program: _RatioProgram, start: Iterable[int], peel: _Peel = None, q: Fraction | None = None
) -> tuple[Iterable[int], bool, list[Fraction], list[str]]:
    """Return (witness, exact, q at the start and after each step, routes).

    ``start`` is a nonempty set whose value is the first q; ``peel(q)``
    proposes a set, or None, for steps past ``q_max``; with neither the driver
    stops there, inexact.  ``q``, when given, is the first q.
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
        value = q if side is None else program.value(side)
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


def _float_core(
    graph: SignedGraph, weights: np.ndarray, bound: float, keep: list[int], degrees: np.ndarray
) -> np.ndarray:
    """Ascending ids of ``keep`` and of a superset of the ``bound``-core (the largest
    set in which every node has exact degree at least ``bound``), pruned in float64.

    ``weights`` are the edges' weights (>= 0) and ``degrees`` the whole
    graph's (``_degrees``), which the first round takes.  Each later round
    sums every survivor's degree afresh from nonnegative terms, so the float
    degree is at least the exact one times 1 - delta, where
    delta = (2m + 4) * 2**-52 covers the rounding of up to 2m terms and of
    the threshold bound * (1 - delta).  Only a node below that threshold is
    dropped, so no core node ever is, and any round leaves a superset.
    Rounds stop once one drops fewer than ``_PRUNE_STOP_FRACTION`` of the
    survivors; nothing is pruned when ``bound`` is not positive.  A set whose
    nodes have degree at least ``bound`` within it lies in the core.
    """
    n, u, v, w = graph.n, graph.u, graph.v, weights
    alive = np.ones(n, dtype=bool)
    threshold = bound * (1 - (2 * graph.m + 4) * 2.0**-52)
    size = n if bound > 0 else 0
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
    u, v, keep = _induced_columns(graph.n, graph.u, graph.v, nodes)
    program = _ratio_program(len(nodes), u, v, weights[keep], np.zeros(u.shape[0]), 0, 1, 1, math.inf)
    witness = _max_density_side(program, Fraction(g))
    if witness:
        return DecisionOutcome(True, frozenset(nodes[witness].tolist()))
    return DecisionOutcome(False, None)


def _maximize(graph: SignedGraph, p: np.ndarray, r: np.ndarray, params: ObjectiveParams, peel: _Peel = None):
    """Maximize (P(S) + l1*|S|) / (rt*R(S) + l2*|S|) over nonempty node sets of ``graph``.

    P and R are float64 columns (>= 0) over the edges, (l1, l2, rt) are
    ``params``, and ``peel`` the V run's peel route (see the module
    docstring).  Returns the witness, the float sum of its induced P in edge
    order, and the driver's exact flag, q history and routes.
    """
    n = graph.n
    l1, l2, rt = params.lambda1, params.lambda2, params.risk_tolerance
    q_max = _q_max(p, r, rt)
    answer = None
    if q_max == math.inf or _objective_floor(p, r, n, params) <= q_max:
        bulk, bulk_p, degrees = _bulk_peel(n, graph.u, graph.v, p)
        bulk_r = r[_induced_edges(graph, bulk)] if q_max < math.inf else r[:0]  # R = 0 when q_max is inf
        floor = _objective_floor(bulk_p, bulk_r, len(bulk), params)
        if floor <= q_max:  # else every run passes q_max
            kept = _float_core(graph, p, _down(_down(floor * _down(float(l2))) - _up(float(l1))), bulk, degrees)
            u, v, keep = _induced_columns(n, graph.u, graph.v, kept)
            p_kept, r_kept = p[keep], r[keep]
            program = _ratio_program(len(kept), u, v, p_kept, r_kept, l1, l2, rt, q_max)
            start, q = _warm_start(program, p_kept, r_kept, np.searchsorted(kept, bulk).tolist(), params)
            answer = _dinkelbach(program, start, q=q)
    if answer is None or not answer[1]:
        kept, p_kept = None, p
        program = _ratio_program(n, graph.u, graph.v, p, r, l1, l2, rt, q_max)
        answer = _dinkelbach(program, range(n), peel)
    best, exact, history, routes = answer
    nodes = best if kept is None else kept[best].tolist()  # a cut's witness is an ascending list
    return nodes, _sequential_sum(p_kept[_induced_edges(program, frozenset(best))]), exact, history, routes


def exact_dsd(graph: SignedGraph) -> DsdResult:
    """True maximizer of w(S)/|S| over nonempty S, w being the net weight
    ``wpos - wneg`` of each pair; ties go to the largest set.

    Raises :class:`NegativeWeightError` on any negative net weight.  This is
    the front end's program with P = w, R = 0 and (l1, l2) = (0, 1): q_max is
    inf, so every Dinkelbach step is a minimum cut and the answer is exact.
    """
    weights = _validate_nonnegative(graph)
    if graph.n == 0:
        raise EmptySetError("graph has no nodes")
    nodes, w_float, _, _, _ = _maximize(graph, weights, np.broadcast_to(0.0, weights.shape), _DENSITY)
    nodes = frozenset(nodes)
    return DsdResult(nodes, w_float / len(nodes), w_float, 0.0, exact=True, algorithm="exact_dsd")


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


def binary_search_objective(graph: SignedGraph, params: ObjectiveParams) -> tuple[DsdResult, SearchTrace]:
    """Maximize the ratio objective with the front end's Dinkelbach driver.

    This is the front end's program with P = wpos and R = rt*wneg.  Steps are
    exact minimum cuts while q <= min wpos/(rt*wneg); past it they reweight
    with :func:`tilde_weights` and peel (or end, if that overflows a float),
    and the result is flagged inexact.  The driver runs on the float-pruned program first and starts over from
    the whole node set if a step passes q_max, so the answer is always the
    whole set's start's, in fewer and smaller cuts.  The returned set is a
    real witness re-scored under the true objective, so it never
    overestimates.  The name predates the driver, which replaced a
    bisection; it stays so existing callers keep working.
    """
    if graph.n == 0:
        raise EmptySetError("graph has no nodes")
    upper = _check_objective_range(graph, params)
    rt = params.risk_tolerance

    def peel(q: Fraction) -> frozenset[int] | None:
        try:
            reweighted = tilde_weights(graph, float(q), rt)
        except BadParametersError:  # a reweighted magnitude, or their total, beyond the float range
            return None  # every set that induces such a pair is worth at most q: the search ends here
        return peeling.c_sweep(reweighted, peeling.DEFAULT_C_LIST, peeling.PeelScoring()).nodes

    nodes, _, exact, history, routes = _maximize(graph, graph.wpos, graph.wneg, params, peel)
    lo_history = [float(q) for q in history]
    hi_history = [upper] * len(history)
    if exact:
        hi_history[-1] = lo_history[-1]
    result = DsdResult.evaluate(graph, nodes, algorithm="binary_search", exact=exact, params=params)
    return result, SearchTrace(len(routes), lo_history, hi_history, exact, routes)
