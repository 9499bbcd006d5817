"""Dinic max flow on integer capacities, over flat arc arrays.

A network is handed over whole, as arc pairs: pair k joins ``tail[k]`` and
``head[k]`` with residual capacity ``cap[k]`` forward and ``back[k]``
backward (0 for a plain directed arc, w both ways for an undirected edge
of weight w, and the flow already pushed for an arc that carries some).
One stable argsort on the tails puts the arcs in CSR order: the arcs of
node x are positions ``start[x]:start[x+1]``, in the order of their pairs,
arc e runs to ``to[e]``, and ``rev[e]`` is its partner.

There is one capacity path.  Capacities are Python ints in one list, so
arbitrarily large scaled weights are exact, and a numpy bool mask records
which arcs are open (residual capacity > 0).  Each phase levels the nodes
by a BFS whose every level is one numpy step over the mask, then finds a
blocking flow by a Python current-arc DFS over flat lists; each augment
updates the mask with the capacities it changes.  ``residual_sink_side``
is a reverse BFS of the same kind.  It returns the nodes that can still
reach the sink, the same set for every maximum flow: the complement is the
largest source side of a minimum cut, which is what the density decision
procedure needs to extract the largest optimal witness.
"""

from __future__ import annotations

import numpy as np


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
        ends = np.stack([tail, head], axis=1).ravel()  # arc 2k is pair k forward, 2k+1 backward
        order = np.argsort(ends, kind="stable")
        position = np.empty_like(order)
        position[order] = np.arange(order.shape[0])
        caps = np.stack([np.asarray(cap, dtype=object), np.asarray(back, dtype=object)], axis=1).ravel()[order]
        self.n = n
        self.to = np.stack([head, tail], axis=1).ravel()[order]
        self.rev = position[order ^ 1]
        self.start = np.searchsorted(ends[order], np.arange(n + 1))
        self.cap: list[int] = caps.tolist()
        self.open = caps > 0

    def _arcs(self, nodes: np.ndarray) -> np.ndarray:
        """Positions of the arcs of ``nodes``, node after node."""
        first = self.start[nodes]
        count = self.start[nodes + 1] - first
        return np.repeat(first - (np.cumsum(count) - count), count) + np.arange(count.sum())

    def _levels(self, s: int, t: int) -> list[int] | None:
        """BFS distance from s over open arcs, up to t's; None when t is cut off."""
        level = np.full(self.n, -1, dtype=np.int64)
        level[s] = 0
        frontier = np.array([s])
        depth = 0
        while frontier.shape[0] and level[t] < 0:
            arcs = self._arcs(frontier)
            heads = self.to[arcs[self.open[arcs]]]
            frontier = _distinct(heads[level[heads] < 0])
            depth += 1
            level[frontier] = depth
        return level.tolist() if level[t] >= 0 else None

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
        while (level := self._levels(s, t)) is not None:
            total += self._blocking_flow(s, t, level, start, to, rev)
        return total

    def residual_sink_side(self, t: int) -> np.ndarray:
        """Mask of the nodes that can still reach t in the residual network (t included).

        The complement is the largest source side over all minimum cuts.
        """
        side = np.zeros(self.n, dtype=bool)
        side[t] = True
        frontier = np.array([t])
        while frontier.shape[0]:
            arcs = self._arcs(frontier)
            tails = self.to[arcs[self.open[self.rev[arcs]]]]  # nodes with an open arc into the frontier
            frontier = _distinct(tails[~side[tails]])
            side[frontier] = True
        return side
