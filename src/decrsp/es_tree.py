"""Exact single-source shortest-path tree maintained to a depth bound.

Classic Even-Shiloach scheme adapted to non-negative integer weights (the
bands of a ``FullRangeSssp`` set watcher run it on distance-to-set views,
whose virtual source edges weigh 0): each node stores its exact distance
("level") from the root while it is at most the depth bound, and infinity
otherwise.  Under deletions and weight
increases levels never decrease, so repair work amortizes against total
level movement; ``work_counter`` counts adjacency reads (edge scans) made
during repair and is bounded by O(m * depth) overall.

The tree keeps no parent pointers: the levels alone say which nodes lean on
which.  A build is one bounded Dijkstra.  An edge (x, y) is *tight* for x when ``level(x) == level(y) + w``.  A changed
edge can only matter to an endpoint for which it was tight before the change
(read with the record's old weight), so only those endpoints become pending;
a change on any other edge costs no scan at all.  Each popped node gets one
adjacency scan, which yields both its new level (the minimum over its
neighbours) and its tight dependents (neighbours ``t`` with
``level(t) == old level + w``).  If its level rose, those dependents are
pushed, each at most once while queued.  The heap pops by ``(level, node)``,
so the order of pushes is immaterial.

Levels climb round by round: a cut-off region rises one repair step at a
time up to the depth bound, where it is cut to infinity.  This tree serves
only ``FullRangeSssp``: its bands (the exact band, the tree on each scaled
mirror band, the layered sentinel) and each ``LayerAssembly``'s ``lower``
tree.  The ball contracts, every ball inner tree and set watcher, run a
``MonotoneEsTree``, whose two-phase repair lifts a cut-off region in one
pass.  Moving the bands onto that repair, and deleting this class, is the
open half of the two-phase repair item in ROADMAP.md.
"""

from __future__ import annotations

import heapq
from math import inf

from .graph import dijkstra_bounded


class EsTree:
    # benchmarks/tracing.py counts exact bands by reading ``mode`` on every
    # band in ``FullRangeSssp.stacks`` (an EsTree or a LayerAssembly), so the
    # attribute and its values stay.
    mode = "exact"

    def __init__(self, view, root, depth):
        self.view = view
        self.root = root
        # No finite distance can exceed (node count - 1) * max weight, so the
        # repair loop terminates on disconnection even with an infinite depth.
        finite_cap = max(0, view.node_count() - 1) * view.max_weight
        self.depth = min(depth, finite_cap)
        # node -> exact distance; absent means above depth / cut off
        self.level = dijkstra_bounded(view, root, self.depth)
        self.work_counter = 0

    # -- reads --------------------------------------------------------------

    def query(self, node):
        """Current exact distance from the root, inf above the depth bound."""
        return self.level.get(node, inf)

    def holds_only_root(self):
        """Whether every level but the root's is inf; as levels never fall,
        the tree then stays so."""
        return len(self.level) == 1

    # -- updates ------------------------------------------------------------

    def process_update(self, rec):
        """Repair after one graph change; returns [(node, new_level)] sorted.

        The changed edge matters only if it was tight for one of its
        endpoints before the change.
        """
        level = self.level
        u, v, w = rec.u, rec.v, rec.old_weight
        lu = level.get(u, inf)
        lv = level.get(v, inf)
        # Both endpoints can be tight only on a zero-weight edge.
        tight_u = lu == lv + w and lu != inf and u != self.root
        tight_v = lv == lu + w and lv != inf and v != self.root
        if not (tight_u or tight_v):
            return []
        heap = []
        if tight_u:
            heap.append((lu, u))
        if tight_v:
            heap.append((lv, v))
        heap.sort()
        queued = {x for _, x in heap}
        neighbors = self.view.neighbors
        depth = self.depth
        raised = set()
        while heap:
            cur, x = heapq.heappop(heap)
            queued.discard(x)
            nbrs = neighbors(x)
            self.work_counter += len(nbrs)
            best = inf
            dependents = []
            for y, w in nbrs:
                ly = level.get(y, inf)
                if ly + w < best:
                    best = ly + w
                if ly - w == cur:
                    dependents.append(y)
            if best <= cur:
                # Another route still gives the old level (weight increases
                # can leave the minimum where it was); nothing moves.
                if best != cur:
                    raise AssertionError("level regression at node %r" % (x,))
                continue
            raised.add(x)
            if best > depth:
                del level[x]
            else:
                level[x] = best
            for t in dependents:
                if t not in queued:
                    queued.add(t)
                    heapq.heappush(heap, (level[t], t))
        return [(x, level.get(x, inf)) for x in sorted(raised)]
