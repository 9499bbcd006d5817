"""Greedy peeling: repeatedly drop the lowest-scoring node, keep the best prefix.

The score of a node v in the surviving subgraph H is
``c * posdeg_H(v) - negdeg_H(v)``.  With ``c == 1`` this is the plain total
degree; larger ``c`` protects nodes with high positive degree from being
peeled early, smaller ``c`` drives out nodes whose positive and negative
degrees roughly cancel.  Because single values of ``c`` can each fail on
adversarial inputs, :func:`c_sweep` runs a list of values and keeps the best
output.  A :class:`PeelOrder`, a removal order and its multiplier, is a
peel's whole output, and :class:`PeelScoring` says only how its prefixes
are scored.

Sweeps of small graphs peel their multipliers at once over dense rows of
pair weights (:func:`_peel_dense`), with the orders of :func:`peel_order`.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import signal
import threading
from dataclasses import dataclass, replace
from typing import Iterable, NoReturn

import numpy as np

from .core import (
    DsdResult,
    ObjectiveParams,
    SignedGraph,
    TIE_TOLERANCE,
    _check_objective_range,
    _is_finite_real,
    _objective,
)
from .errors import (
    BadParametersError,
    EmptyCListError,
    EmptySetError,
    NonPositiveCError,
)

DEFAULT_C_LIST = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 10.0)

_MODES = ("net_density", "objective")

# Arc visits (arcs times distinct multipliers) below which c_sweep peels
# in one process.  On a 2-vCPU VM a fork and wait of a 60-80 MB process
# took 4-6 ms, and more for a larger process; with the column peel, a
# second worker took the peels of a 7-multiplier sweep of 29k arc visits
# (600 nodes) from 24 to 22-23 ms, and of one of 208k arc visits (3,000
# nodes) from 164-168 to 112-113 ms (medians of 15 cold sweeps).
_FORK_MIN_ARC_VISITS = 100_000

# Nodes above which _peel_columns finds each step's node through per-block
# lower bounds of the score column rather than one argmin of all of it, and
# the nodes in a block.  On BENCH_11.json's grid of 84 graphs (2k-65k nodes,
# 0.5-32 arcs a node; best of 2-3 peels at c = 1, 2-vCPU VM) the blocks took
# 1.0-2.0 times as long as the single scan at 2,000-8,000 nodes (all but one
# graph of half an arc a node), 0.6-1.3 times at 16,000 and 0.4-1.3 times at
# 24,000-32,000, where only graphs of 32 arcs a node still lost.  Of splits
# from 4,000 to 32,000, this one gave the least summed time (0.586 of that
# under the rule it replaced, which sent large or sparse graphs to a heap)
# and the fewest graphs more than 10% slower than under that rule (5).  On
# the 100k-node probe graph one peel took 1.87 s with blocks of 256 nodes,
# 2.01 s with 128 and 1.93-1.94 s with 512 or 1,024.
_PEEL_SPLIT_NODES = 16_384
_PEEL_BLOCK = 256

# Arcs up to which a column-peel step re-scores in a Python loop: about
# 0.4 us an arc, against about 3.5 us for the handful of numpy calls.
# Against numpy alone, the loop took query-sweep's job.kind2_s from 0.200 s
# to 0.174 s and job.kind1_s from 0.088 s to 0.075 s (8 of 8 alternating
# 30 s pairs, BENCH_10.json); cli-peel and flow-search held within their
# runs' spread.
_COLUMN_PEEL_LOOP_ARCS = 8

# Nodes up to which, and multipliers to peel from which, a sweep peels on
# _peel_dense.  On BENCH_19.json's grid (2-vCPU VM) a cold c_sweep took
# 0.41-0.75 times as long as on the column peel with 7 multipliers up to
# 512 nodes, and 0.67-1.06 with 3 (near parity at 400-512 nodes and 10
# arcs a node).  2 multipliers lost from 200 nodes, 3 from 640, 7 from 768.
_DENSE_MAX_NODES = 512
_DENSE_MIN_MULTIPLIERS = 3


def _check_c(c: float) -> None:
    if not (_is_finite_real(c) and c > 0):
        raise NonPositiveCError(f"c must be finite and > 0, got {c}")


@dataclass(frozen=True, slots=True)
class PeelOrder:
    """Removal order of a peel at multiplier ``c``; prefix i is the last i surviving nodes.

    ``removal_sequence[0]`` is the first node removed.  ``c`` is the float
    the peel scored with, which :func:`best_prefix` reports as ``c_used``.
    No peel records the scores.
    """

    removal_sequence: list[int]
    c: float


@dataclass(frozen=True, slots=True)
class PeelScoring:
    """How prefixes are evaluated.

    ``mode`` is ``"net_density"`` (net induced weight over size), which
    takes no ``params``, or ``"objective"`` (the ratio objective), which
    requires them.
    """

    mode: str = "net_density"
    params: ObjectiveParams | None = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise BadParametersError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.mode == "objective" and self.params is None:
            raise BadParametersError("objective mode needs ObjectiveParams")
        if self.mode == "net_density" and self.params is not None:
            raise BadParametersError("net_density mode takes no ObjectiveParams; use mode='objective'")


def peel_order(graph: SignedGraph, c: float = 1.0) -> PeelOrder:
    """Peel nodes by ascending ``c*posdeg - negdeg``, ties to the smallest id.

    Deterministic for a fixed (graph, c).  Scores are float64, computed with
    ``float(c)`` (so an int or numpy multiplier peels as the equal float),
    and each removal re-scores the removed node's neighbours with one
    subtraction per weight each (pairs are collapsed, so a neighbour appears
    once).  Every graph peels in one step loop, :func:`_peel_columns`,
    which finds each step's node by one argmin of the score column up to
    16,384 nodes, O(n^2 + m), and by an argmin over per-block lower bounds
    of the column above that or when a score may overflow.  ``-0.0`` ties
    with ``0.0``, and scores that overflow to ``+inf`` tie with each other,
    so they too leave by id.
    """
    _check_c(c)
    if graph.n == 0:
        raise EmptySetError("cannot peel an empty graph")
    return _peel_columns(graph, float(c))


def _peel_columns(graph: SignedGraph, c: float) -> PeelOrder:
    """:func:`peel_order` over float64 columns, in one step loop.

    ``p``, ``q`` and ``score = c*p - q`` hold each node's positive degree,
    negative degree and score among the survivors.  A removed node gets
    ``p = score = +inf``; updates keep it there (``inf - w`` is ``inf``).

    Only the choice of each step's node depends on the mode.  A graph of at
    most ``_PEEL_SPLIT_NODES`` nodes whose scores cannot overflow scans:
    ``argmin`` of the whole column, the first index of the least score.  Any
    other graph cuts the column into blocks of ``_PEEL_BLOCK`` nodes (the
    last padded with removed nodes), each with a lower bound of its least
    score.  A step takes the first block of least bound and the first node
    of least score in it; when that score equals the bound it is the
    column's least score at its smallest id, else the bound rises to it and
    the step looks again.  A falling score lowers its block's bound; rises
    and removals leave the bound below every live score of the block.  A
    live ``p`` stays finite, so when the least score is ``+inf`` and belongs
    to a removed node, every live score is ``+inf`` and the smallest live
    id leaves.

    A node with more than ``_COLUMN_PEEL_LOOP_ARCS`` arcs re-scores its
    neighbours with numpy; one with fewer in a Python loop over memoryviews
    of the same columns, which skips numpy's fixed cost per call.  Both do
    the same float operations in the same order.  The scan has a loop of
    its own that touches no bound: testing the mode at every arc made
    peels of 3,000 nodes and 15,000 edges 2-5% slower.
    """
    n = graph.n
    size = _PEEL_BLOCK
    inf = math.inf
    overflow = _may_overflow(graph, c)
    blocked = overflow or n > _PEEL_SPLIT_NODES
    width = -(-n // size) * size if blocked else n
    p = np.full(width, inf)
    p[:n] = graph.deg_pos
    q = np.zeros(width)
    q[:n] = graph.deg_neg
    with np.errstate(over="ignore"):
        score = c * p - q
    indptr = graph.indptr.tolist()
    neighbor = graph.neighbor
    arc_pos = graph.wpos[graph.edge_id]
    arc_neg = graph.wneg[graph.edge_id]
    neighbor_at, pos_at, neg_at, p_at, q_at, score_at = map(memoryview, (neighbor, arc_pos, arc_neg, p, q, score))
    argmin = score.argmin
    if blocked:
        blocks = score.reshape(-1, size)  # a view: writes to score show in it
        bound = blocks.min(axis=1)
        arc_block = neighbor // size  # the block of each arc's head (int64: ufunc.at casts other index types)
        bound_at, block_at = memoryview(bound), memoryview(arc_block)
        least_bound = bound.argmin
        lower = np.minimum.at
        first = 0  # no live node has a smaller id
    sequence: list[int] = []
    # errstate only where a score may overflow: it made numpy's calls here 1-6% slower
    with np.errstate(over="ignore") if overflow else contextlib.nullcontext():
        for _ in range(n):
            if not blocked:
                v = int(argmin())
            else:
                b = int(least_bound())
                while True:
                    v = b * size + int(blocks[b].argmin())
                    s = score_at[v]
                    if s == bound_at[b]:
                        break
                    bound_at[b] = s
                    least = int(least_bound())
                    if least == b:  # still first of least bound, and the bound is now its least score
                        break
                    b = least
                if s == inf and p_at[v] == inf:  # every live score is +inf
                    while p_at[first] == inf:
                        first += 1
                    v = first
            sequence.append(v)
            p_at[v] = score_at[v] = inf
            start, end = indptr[v], indptr[v + 1]
            if end - start > _COLUMN_PEEL_LOOP_ARCS:
                nb = neighbor[start:end]
                pn = p[nb] - arc_pos[start:end]
                qn = q[nb] - arc_neg[start:end]
                p[nb] = pn
                q[nb] = qn
                sn = score[nb] = c * pn - qn
                if blocked:
                    lower(bound, arc_block[start:end], sn)
            elif not blocked:
                for k in range(start, end):
                    u = neighbor_at[k]
                    pu = p_at[u] = p_at[u] - pos_at[k]
                    qu = q_at[u] = q_at[u] - neg_at[k]
                    score_at[u] = c * pu - qu
            else:
                for k in range(start, end):
                    u = neighbor_at[k]
                    pu = p_at[u] = p_at[u] - pos_at[k]
                    qu = q_at[u] = q_at[u] - neg_at[k]
                    su = score_at[u] = c * pu - qu
                    if su < bound_at[block_at[k]]:
                        bound_at[block_at[k]] = su
    return PeelOrder(sequence, c)


def _may_overflow(graph: SignedGraph, c: "float | np.ndarray") -> bool:
    """Whether a score ``c*p - q`` of a peel at ``c`` (a float or a column of them) may overflow."""
    with np.errstate(over="ignore"):
        # |score| stays within c*posdeg + negdeg, and twice that leaves room for rounding
        return not np.isfinite(2 * (c * graph.deg_pos + graph.deg_neg)).all()


def _peel_dense(graph: SignedGraph, c: np.ndarray, out: np.ndarray) -> None:
    """:func:`peel_order` at each value of the column ``c`` at once, row ``r`` of ``out`` at ``c[r]``.

    Row ``r`` of ``p``, ``q`` and ``score`` is :func:`_peel_columns`' column
    at ``c[r]``.  Each step removes each row's first node of least score,
    writes it to that row's column of the ``(k, n)`` int64 array ``out``, and
    subtracts its row of pair weights (dense: 16 bytes per node pair) from
    ``p`` and ``q``.  A non-neighbour loses ``0.0``, which leaves a finite
    value as it is, and the removed node loses ``-inf``, the diagonal of the
    positive rows, so it keeps ``p = +inf`` from then on; so when no score
    can overflow (:func:`_may_overflow`, checked by the caller) every order
    equals the column peel's.
    """
    n, k = graph.n, c.shape[0]
    weights = np.zeros((n, 2, n))  # weights[v, 0] is v's row of positive weights, weights[v, 1] of negative
    for column, w in enumerate((graph.wpos, graph.wneg)):
        weights[graph.u, column, graph.v] = w
        weights[graph.v, column, graph.u] = w
    weights[np.arange(n), 0, np.arange(n)] = -math.inf  # a diagonal (loop) is subtracted only as its node leaves
    pq = np.tile(np.stack([graph.deg_pos, graph.deg_neg]), (k, 1, 1))
    p, q = pq[:, 0], pq[:, 1]
    score = c * p - q
    for step in range(n):
        removed = score.argmin(axis=1, out=out[:, step])
        pq -= weights[removed]
        np.multiply(c, p, out=score)
        score -= q


def best_prefix(graph: SignedGraph, order: PeelOrder, scoring: PeelScoring) -> DsdResult:
    """Score every prefix of a peel at once and return the best one.

    The result's ``c_used`` is the order's ``c``, checked as
    :func:`peel_order` checks it.  Ties within ``TIE_TOLERANCE`` go to the
    smallest prefix (smallest set).
    An edge belongs to every prefix of at most ``n - k`` nodes, where ``k``
    is the earlier removal position of its two ends, so the induced weights
    of all prefixes are one ``np.bincount`` over ``k`` summed from the last
    position back: O(n + m), and only nonnegative terms are ever added
    (subtracting peeled weights from the totals instead can cancel them to
    a negative weight and a zero denominator).
    """
    n = graph.n
    sequence = np.asarray(order.removal_sequence)
    if (
        sequence.shape != (n,)
        or sequence.dtype.kind not in "iu"
        or (n and (sequence.min() < 0 or sequence.max() >= n))
        or np.bincount(sequence, minlength=n).max(initial=1) != 1
    ):
        raise BadParametersError("order is not a permutation of this graph's nodes")
    _check_c(order.c)
    if scoring.mode == "objective":
        _check_objective_range(graph, scoring.params)
    position = np.empty(n, dtype=np.int64)
    position[sequence] = np.arange(n)
    k = np.minimum(position[graph.u], position[graph.v])
    # entry s-1 holds the weight induced by the last s nodes
    wpos = np.cumsum(np.bincount(k, weights=graph.wpos, minlength=n)[::-1])
    wneg = np.cumsum(np.bincount(k, weights=graph.wneg, minlength=n)[::-1])
    size = np.arange(1, n + 1, dtype=np.float64)
    if scoring.mode == "net_density":
        values = (wpos - wneg) / size
    else:
        values = _objective(wpos, wneg, size, scoring.params)
    best_size = int(np.argmax(values >= values.max() - TIE_TOLERANCE)) + 1
    return DsdResult.evaluate(
        graph,
        sequence[n - best_size :].tolist(),
        algorithm="peel",
        exact=False,
        params=scoring.params,
        c_used=order.c,
    )


def c_sweep(
    graph: SignedGraph,
    c_list: Iterable[float] = DEFAULT_C_LIST,
    scoring: PeelScoring | None = None,
) -> DsdResult:
    """Run the peel for every multiplier in ``c_list`` and keep the best output.

    Results are compared under the scoring mode (net density or objective
    value); ties within ``TIE_TOLERANCE`` resolve to the smaller multiplier.
    Every multiplier is checked before any peel runs.  A removal order
    depends only on the graph and the multiplier, so the graph keeps the
    order of each multiplier it was peeled at (an int64 array, 8 bytes per
    node, for as long as the graph lives): a later sweep of the same graph,
    under any scoring, peels only multipliers it has not seen, and each
    distinct multiplier is peeled once, as the equal float (also its
    ``c_used``).  On a graph of at most 512 nodes, 3 or more multipliers to
    peel are peeled together in this process, never forked, with the pair
    weights held as dense rows (16 bytes per node pair, 4 MB at 512 nodes).
    Otherwise the peels are independent reads of the graph: when arcs times
    multipliers still to peel reach 100,000 they are split over one process
    per usable CPU (at most one per multiplier); the workers are forked from
    this process, read the graph's numpy columns copy-on-write (each peel
    builds its own score columns and no Python lists of arcs) and write
    their removal orders in place into rows of one array in an anonymous
    shared mapping.  Prefix scoring and the comparison run in this process,
    in ``c_list`` order, so the result depends neither on how the
    multipliers were peeled nor on which orders were kept.
    """
    if scoring is None:
        scoring = PeelScoring()
    c_list = list(c_list)
    if not c_list:
        raise EmptyCListError("c_list must contain at least one value")
    for c in c_list:
        _check_c(c)
    c_list = [float(c) for c in c_list]
    best: DsdResult | None = None
    best_value = 0.0
    best_c = 0.0
    for c, sequence in zip(c_list, _peel_orders(graph, c_list)):
        result = best_prefix(graph, PeelOrder(sequence, c), scoring)
        value = result.f_value if scoring.mode == "objective" else result.net_density
        if (
            best is None
            or value > best_value + TIE_TOLERANCE
            or (value >= best_value - TIE_TOLERANCE and c < best_c)
        ):
            best, best_value, best_c = result, value, c
    return replace(best, algorithm="c_sweep")


def _worker_count(graph: SignedGraph, multipliers: int) -> int:
    """How many processes peel ``multipliers`` distinct multipliers; 1 means no fork."""
    if multipliers < 2 or graph.neighbor.shape[0] * multipliers < _FORK_MIN_ARC_VISITS:
        return 1
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if threading.active_count() > 1:  # a forked child gets only this thread
        return 1
    return min(multipliers, len(os.sched_getaffinity(0)))


def _peel_orders(graph: SignedGraph, c_values: "list[float] | tuple[float, ...]") -> list[np.ndarray]:
    """The removal sequence of ``peel_order(graph, c)`` for each value, as read-only int64 arrays.

    The sequences are kept on the graph by multiplier.  Only the distinct
    values not kept yet are peeled, and they are kept once all of them are
    in, so nothing is kept when a peel raises or is interrupted.
    """
    kept = graph._orders
    missing = [c for c in dict.fromkeys(c_values) if c not in kept]
    if missing:
        kept.update(zip(missing, _peel_sequences(graph, missing)))
    return [kept[c] for c in c_values]


def _peel_sequences(graph: SignedGraph, c_values: list[float]) -> np.ndarray:
    """The removal sequence of each value as a row of one read-only ``(k, n)`` int64 array.

    A small graph peels enough values together on :func:`_peel_dense`, when
    no score can overflow.  Else worker ``w`` of ``_worker_count`` processes
    peels rows ``w, w + workers, ...``; this process is worker 0.  Every
    peel writes its row in place: when workers fork, the array lives in an
    anonymous shared mapping, which the forked workers write too.  This
    process also peels the rows of workers that could not be forked, and
    after reaping a worker that exited nonzero or was killed, that worker's
    rows.  Every child is reaped before this returns or raises.
    """
    k, n = len(c_values), graph.n
    c = np.array(c_values, dtype=np.float64)[:, None]
    dense = k >= _DENSE_MIN_MULTIPLIERS and 0 < n <= _DENSE_MAX_NODES and not _may_overflow(graph, c)
    workers = 1 if dense else _worker_count(graph, k)
    sequences = np.ndarray((k, n), np.int64, mmap.mmap(-1, 8 * k * n) if workers > 1 else None)
    children = {}  # pid -> the rows it peels
    try:
        for w in range(1, workers):
            try:
                pid = os.fork()
            except OSError:  # no process to spare: this process peels the rest
                break
            if pid == 0:
                _peel_child(graph, c_values, range(w, k, workers), sequences)
            children[pid] = range(w, k, workers)
        if dense:
            _peel_dense(graph, c, sequences)
        else:  # this process's rows and those of workers not forked
            for i in sorted(set(range(k)).difference(*children.values())):
                sequences[i] = peel_order(graph, c_values[i]).removal_sequence
        for pid in list(children):
            _, status = os.waitpid(pid, 0)
            rows = children.pop(pid)
            if os.waitstatus_to_exitcode(status) != 0:  # it failed or was killed: peel its rows here
                for i in rows:
                    sequences[i] = peel_order(graph, c_values[i]).removal_sequence
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    sequences.flags.writeable = False
    return sequences


def _peel_child(graph: SignedGraph, c_values: list[float], rows: range, sequences: np.ndarray) -> NoReturn:
    """Body of a forked worker: write its rows of the shared ``sequences`` in place, exit 0 or 1, never return."""
    code = 1
    try:
        for i in rows:
            sequences[i] = peel_order(graph, c_values[i]).removal_sequence  # a sequence of another length raises
        code = 0
    finally:
        os._exit(code)
