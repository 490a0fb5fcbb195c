"""Exact single-source shortest-path tree maintained to a depth bound.

Classic Even-Shiloach scheme adapted to non-negative integer weights (ball
watchers run it on distance-to-set views, whose virtual source edges weigh
0): each node stores its exact distance ("level") from the root while it is
at most the depth bound, and infinity otherwise.  Under deletions and weight
increases levels never decrease, so repair work amortizes against total
level movement; ``work_counter`` counts edge scans and is bounded by
O(m * depth) overall.

A node is re-examined only when the edge to its current parent degrades or
its parent's level rises; other incident edges cannot change its minimum.
Every parent pointer has its inverse in ``children`` (parent -> set of
children), built with the tree and kept in step by ``_set_parent`` during
repair, so a node whose level rises hands its children to the repair heap
without scanning its neighbours.  The heap
pops by ``(level, node)``, so the order children are pushed in is immaterial.
"""

from __future__ import annotations

import heapq
from math import inf

from .graph import dijkstra_bounded


class EsTree:
    # A band of FullRangeSssp is an EsTree or a LayerAssembly, told apart by
    # ``mode``.  benchmarks/tracing.py reads ``s.mode`` for every ``s`` in
    # ``full.stacks`` to count exact bands; the benchmark directory stays
    # fixed across library changes, so this attribute and its values stay.
    mode = "exact"

    def __init__(self, view, root, depth):
        self.view = view
        self.root = root
        # No finite distance can exceed (node count - 1) * max weight, so the
        # repair loop terminates on disconnection even with an infinite depth.
        finite_cap = max(0, view.node_count() - 1) * view.max_weight
        self.depth = min(depth, finite_cap)
        self.level = {}  # node -> exact distance; absent means above depth / cut off
        self.parent = {}  # node -> parent node id (root maps to None)
        self.children = {}  # node -> set of nodes whose parent it is
        self.work_counter = 0
        self._rebuild()

    def _rebuild(self):
        self.level = dijkstra_bounded(self.view, self.root, self.depth)
        self.parent = parent = {self.root: None}
        self.children = children = {}
        for x in self.level:
            if x == self.root:
                continue
            lx = self.level[x]
            best_p = None
            for y, w in self.view.neighbors(x):
                self.work_counter += 1
                ly = self.level.get(y, inf)
                if ly + w == lx and (best_p is None or y < best_p):
                    best_p = y
            if best_p is None:
                raise AssertionError("no parent on a shortest path to %r" % (x,))
            parent[x] = best_p
            children.setdefault(best_p, set()).add(x)

    def _set_parent(self, x, p):
        """Point ``x`` at parent ``p`` (``None`` detaches it), keeping
        ``children`` the exact inverse of ``parent``."""
        old = self.parent.get(x)
        if old == p:
            return
        if old is not None:
            self.children[old].discard(x)
        if p is None:
            del self.parent[x]
        else:
            self.parent[x] = p
            self.children.setdefault(p, set()).add(x)

    # -- reads --------------------------------------------------------------

    def query(self, node):
        """Current exact distance from the root, inf above the depth bound."""
        return self.level.get(node, inf)

    # -- updates ------------------------------------------------------------

    def process_update(self, rec):
        """Repair after one graph change; returns [(node, new_level)] sorted.

        Only changes touching this view matter, and only if the degraded edge
        currently carries a parent pointer.
        """
        rec = self.view.filter_record(rec)
        if rec is None:
            return []
        dirty = []
        for x, y in ((rec.u, rec.v), (rec.v, rec.u)):
            if self.parent.get(x) == y:
                dirty.append(x)
        if not dirty:
            return []
        heap = [(self.level.get(x, inf), x) for x in dirty]
        heapq.heapify(heap)
        pre = {}
        while heap:
            _, x = heapq.heappop(heap)
            if x == self.root:
                continue
            cur = self.level.get(x, inf)
            best = inf
            best_p = None
            for y, w in self.view.neighbors(x):
                self.work_counter += 1
                cand = self.level.get(y, inf) + w
                if cand < best or (cand == best and best_p is not None and y < best_p):
                    best = cand
                    best_p = y
            if best > self.depth:
                best = inf
            if best <= cur:
                # Weight increases can leave the minimum where it was (another
                # route ties); reattach the parent pointer and stop.
                if best != cur:
                    raise AssertionError("level regression at node %r" % (x,))
                if cur != inf:
                    self._set_parent(x, best_p)
                continue
            if x not in pre:
                pre[x] = cur
            kids = list(self.children.get(x, ()))
            if best is inf:
                self.level.pop(x, None)
                self._set_parent(x, None)
            else:
                self.level[x] = best
                self._set_parent(x, best_p)
            for t in kids:
                heapq.heappush(heap, (self.level.get(t, inf), t))
        return [
            (x, self.level.get(x, inf))
            for x in sorted(pre)
            if self.level.get(x, inf) != pre[x]
        ]

