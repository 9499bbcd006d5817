"""Dinic max flow on integer capacities, over flat arc arrays.

A network is handed over whole, as arc pairs: pair k joins ``tail[k]`` and
``head[k]`` with residual capacity ``cap[k]`` forward and ``back[k]``
backward (0 for a plain directed arc, w both ways for an undirected edge
of weight w, and the flow already pushed for an arc that carries some).
Loop pairs carry no flow and are dropped; :func:`~negdsd.core._csr` indexes
the other arcs: those of node x are ``start[x]:start[x+1]``, by pair and
forward first, arc e runs to ``to[e]``, and ``rev[e]`` is its partner.

There is one capacity path.  Capacities are Python ints in one list, so
arbitrarily large scaled weights are exact, and a numpy bool mask records
which arcs are open (residual capacity > 0).  One BFS, each level one
numpy step over the mask, serves both the levels and the witness.  Each
phase levels the nodes by it from the source, then finds a blocking flow
by a Python current-arc DFS over flat lists; each augment updates the mask
with the capacities it changes.  ``residual_sink_side`` walks it backward
into the sink.  It returns the nodes that can still reach the sink, the
same set for every maximum flow: the complement is the largest source side
of a minimum cut, which is what the density decision procedure needs to
extract the largest optimal witness.
"""

from __future__ import annotations

import numpy as np

from .core import _check_arc_keys, _csr


def _distinct(ids: np.ndarray) -> np.ndarray:
    """The distinct values of ``ids``, ascending.

    Not ``np.unique``: its hash table left the benchmark process's peak
    RSS about 1.5 MB higher after a few cuts (flow-search, numpy 2.4).
    """
    ids = np.sort(ids)
    return ids[np.diff(ids, prepend=-1) != 0]


class Dinic:
    def __init__(self, n: int, tail, head, cap, back):
        """Network on nodes 0..n-1 with arc pairs (tail[k] -> head[k] of
        capacity cap[k], head[k] -> tail[k] of capacity back[k]).

        ``tail`` and ``head`` are integer sequences; ``cap`` and ``back``
        hold nonnegative Python ints of any size, or are numpy integer arrays.
        """
        tail, head = np.asarray(tail, dtype=np.int64), np.asarray(head, dtype=np.int64)
        pair = tail != head  # a loop pair carries no flow
        tail, head = tail[pair], head[pair]
        _check_arc_keys(n, 2 * tail.shape[0])  # before anything n long
        self.start, self.to, arc = _csr(n, tail, head)  # arc 2k is pair k forward, 2k+1 backward
        position = np.empty_like(arc)
        position[arc] = np.arange(arc.shape[0])
        caps = np.stack([np.asarray(cap, dtype=object), np.asarray(back, dtype=object)], axis=1)[pair].ravel()[arc]
        self.n = n
        self.rev = position[arc ^ 1]
        self.cap: list[int] = caps.tolist()
        self.open = caps > 0

    def _reach(self, root: int, into: bool = False, stop: int | None = None) -> np.ndarray:
        """BFS distance of each node from ``root`` over open arcs, or to ``root``
        over open arcs into it when ``into``; -1 where unreached.  The walk
        ends when a level is empty or ``stop`` has a distance."""
        level = np.full(self.n, -1, dtype=np.int64)
        level[root] = 0
        frontier = np.array([root])
        depth = 0
        while frontier.shape[0] and (stop is None or level[stop] < 0):
            first = self.start[frontier]
            count = self.start[frontier + 1] - first
            arcs = np.repeat(first - (np.cumsum(count) - count), count) + np.arange(count.sum())
            ends = self.to[arcs[self.open[self.rev[arcs] if into else arcs]]]  # into: the partner runs to the frontier
            frontier = _distinct(ends[level[ends] < 0])
            depth += 1
            level[frontier] = depth
        return level

    def _blocking_flow(self, s: int, t: int, level: list[int], start: list[int], to: list[int], rev: list[int]) -> int:
        cap, is_open = self.cap, self.open
        it = start[:-1]  # current arc of each node
        flow = 0
        path: list[int] = []  # arcs from s to the current node
        u = s
        while True:
            if u == t:
                bottleneck = min(cap[e] for e in path)
                cut_at = len(path)
                for i, e in enumerate(path):
                    cap[e] -= bottleneck
                    if not cap[e]:
                        is_open[e] = False
                        cut_at = min(cut_at, i)
                    r = rev[e]
                    if not cap[r]:
                        is_open[r] = True
                    cap[r] += bottleneck
                flow += bottleneck
                del path[cut_at:]  # retreat to the tail of the first saturated arc
                u = to[path[-1]] if path else s
                continue
            e, end, next_level = it[u], start[u + 1], level[u] + 1
            while e < end and not (cap[e] and level[to[e]] == next_level):
                e += 1
            it[u] = e
            if e < end:
                path.append(e)
                u = to[e]
            elif u == s:
                return flow
            else:
                level[u] = -1  # dead end, prune
                path.pop()
                u = to[path[-1]] if path else s

    def max_flow(self, s: int, t: int) -> int:
        """Push a maximum flow from s to t on top of the flow the capacities hold; return its increase."""
        start, to, rev = self.start.tolist(), self.to.tolist(), self.rev.tolist()
        total = 0
        while (level := self._reach(s, stop=t))[t] >= 0:
            total += self._blocking_flow(s, t, level.tolist(), start, to, rev)
        return total

    def residual_sink_side(self, t: int) -> np.ndarray:
        """Mask of the nodes that can still reach t in the residual network (t included).

        The complement is the largest source side over all minimum cuts.
        """
        return self._reach(t, into=True) >= 0
