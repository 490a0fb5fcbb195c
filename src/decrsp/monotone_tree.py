"""Single-source tree on a scaled multigraph whose levels never decrease.

The structure owns its edge set (a multigraph: parallel edges are identified
by caller-chosen keys) and supports three operations between batch
boundaries: ``insert_edge``, ``increase_edge``, ``delete_edge``.  Insertions
only record the edge - levels are deliberately left alone even when the new
edge offers a shorter route, which is what keeps levels monotone under the
interleaved insert/delete traffic generated by ball changes.  An edge whose
head level exceeds the level of its tail plus its weight is called
*stretched*; stretched edges can only come into existence at insertion time,
and a node keeps its level frozen while one of its incident edges stays
stretched.  Every weight is an integer >= 1.

Batch protocol: any number of edge operations, then ``end_batch``, which
repairs the levels and returns the sorted list of ``(node, new_level)``
changes (new level may be ``inf`` once above the cap).

Between batches every finite node but the root is *supported*: some
incident edge has ``level(other) + weight <= level(node)``.  The new levels
are the least ones that keep this, never drop below the old ones, and turn
into ``inf`` above the cap.  ``end_batch`` finds them in two phases, after
Ramalingam and Reps (J. Algorithms 21, 1996):

1. The endpoints of deleted and increased edges are pending.  They are
   popped in ``(old level, node)`` order.  A node stays put if an
   unaffected neighbour still supports it (stretched edges count);
   otherwise it is *affected*, and each neighbour it supported is queued.
   Weights >= 1 make a supporter's level strictly lower, so every
   supporter is decided before the nodes it supports.
2. Each affected node is seeded from its unaffected neighbours, then one
   Dijkstra over the affected set settles them with the key
   ``max(old level, level(other) + weight)``.  That key never falls below
   its argument, so the Dijkstra order stays exact (Knuth, IPL 6, 1977).
   A node whose key passes the cap is never settled and becomes ``inf`` in
   one step, however high the cap.

``work_counter`` counts heap traffic (pushes and pops of the two repair
queues) and ``edge_scans`` counts adjacency entries read by the repair.
"""

from __future__ import annotations

import heapq
from math import inf

from .graph import dijkstra_bounded


class DuplicateEdgeError(ValueError):
    """Raised when inserting an edge key that is currently present."""


class MonotoneEsTree:
    def __init__(self, root, level_cap, edges=()):
        self.root = root
        self.cap = level_cap
        self.adj = {root: {}}  # node -> {edge_key: (other, weight)}
        self._pending = set()
        self.work_counter = 0
        self.edge_scans = 0
        for edge in edges:
            self.insert_edge(*edge)
        self.level = dijkstra_bounded(self, self.root, self.cap)  # node -> finite level

    # -- reads ---------------------------------------------------------------

    def level_of(self, node):
        return self.level.get(node, inf)

    def has_edge(self, key, u):
        return key in self.adj.get(u, ())

    def has_node(self, u):
        return u in self.adj

    def neighbors(self, u):
        """Iterate (other, weight) over the edges at ``u``, parallel keys included."""
        return self.adj[u].values()

    # -- batch protocol --------------------------------------------------------

    def insert_edge(self, key, u, v, w):
        """Record a new edge.  Levels are left untouched on purpose."""
        if u == v or not w >= 1:
            raise AssertionError(
                "edge %r needs distinct endpoints and weight >= 1, got %r-%r weight %r"
                % (key, u, v, w)
            )
        if key in self.adj.get(u, ()):
            raise DuplicateEdgeError("edge key %r already present" % (key,))
        self.adj.setdefault(u, {})[key] = (v, w)
        self.adj.setdefault(v, {})[key] = (u, w)

    def increase_edge(self, key, u, new_weight):
        """Raise the weight of the edge with this key (strictly)."""
        v, w = self.adj[u][key]
        if not new_weight > w:
            raise AssertionError(
                "weight of edge %r must strictly increase, got %r -> %r" % (key, w, new_weight)
            )
        self.adj[u][key] = (v, new_weight)
        self.adj[v][key] = (u, new_weight)
        self._pending.update((u, v))

    def delete_edge(self, key, u):
        v, _ = self.adj[u][key]
        del self.adj[u][key]
        del self.adj[v][key]
        self._pending.update((u, v))

    def end_batch(self):
        """Repair the levels (the two phases above); returns the changes."""
        adj, level, cap = self.adj, self.level, self.cap
        pending, self._pending = self._pending, set()
        # Phase 1: decide, lowest old level first, which nodes lost support.
        queue = [(level[u], u) for u in pending if u in level and u != self.root]
        heapq.heapify(queue)
        queued = {u for _, u in queue}
        pushes, pops, scans = len(queue), 0, 0
        affected = {}  # node -> old level
        while queue:
            lu, u = heapq.heappop(queue)
            pops += 1
            supported = []  # neighbours this node may be supporting
            for v, w in adj[u].values():
                scans += 1
                lv = level.get(v, inf)
                if lv + w <= lu:
                    if v not in affected:
                        break
                elif lv != inf and lu + w <= lv:
                    supported.append(v)
            else:
                affected[u] = lu
                for v in supported:
                    if v not in queued:
                        queued.add(v)
                        heapq.heappush(queue, (level[v], v))
                        pushes += 1
        # Phase 2: one Dijkstra over the affected set, keyed
        # max(old level, route), seeded from the unaffected neighbours.
        # A seed is already above the old level: no unaffected neighbour
        # supports an affected node.
        best = {}
        for u in affected:
            seed = inf
            for v, w in adj[u].values():
                scans += 1
                if v not in affected:
                    seed = min(seed, level.get(v, inf) + w)
            if seed <= cap:
                best[u] = seed
        heap = [(d, u) for u, d in best.items()]
        heapq.heapify(heap)
        pushes += len(heap)
        settled = {}
        while heap:
            d, u = heapq.heappop(heap)
            pops += 1
            if u in settled:
                continue
            settled[u] = d
            for v, w in adj[u].values():
                scans += 1
                if v in affected and v not in settled:
                    key = max(affected[v], d + w)
                    if key <= cap and key < best.get(v, inf):
                        best[v] = key
                        heapq.heappush(heap, (key, v))
                        pushes += 1
        self.work_counter += pushes + pops
        self.edge_scans += scans
        changes = []
        for u, old in affected.items():
            new = settled.get(u, inf)
            if new != old:
                changes.append((u, new))
                if new == inf:
                    del level[u]
                else:
                    level[u] = new
        changes.sort()
        return changes

    # -- structure checks -----------------------------------------------------------

    def stretched_pairs(self):
        """Directed (edge key, head) pairs where the head level exceeds a
        usable route.  Routes above the cap do not count: once a node's best
        route passed the cap every incident route had, and routes only grow,
        so such edges can never offer the head anything again."""
        out = set()
        for u in self.adj:
            lu = self.level.get(u, inf)
            for key, (v, w) in self.adj[u].items():
                route = self.level.get(v, inf) + w
                if route <= self.cap and lu > route:
                    out.add((key, u))
        return out

    def check_invariants(self, before):
        """Check the levels after a batch against ``before``, the caller's
        record of the last batch boundary: its ``levels``, its ``stretched``
        pairs whose edge is still present, the keys ``inserted`` since, the
        pairs ``ever_stretched`` at an earlier boundary while their edge was
        present, and whether any edge was ``ever_inserted``.  The tree keeps
        no history of its own."""
        prev = before.levels
        now_stretched = self.stretched_pairs()
        # Levels never decrease.
        for u in set(prev) | set(self.level):
            if self.level.get(u, inf) < prev.get(u, inf):
                raise AssertionError("level decreased at %r" % (u,))
        # New stretched edges exist only because of this batch's insertions.
        for key, head in now_stretched - before.stretched:
            if key not in before.inserted:
                raise AssertionError("edge %r became stretched without an insertion" % (key,))
        # An edge stretched at both boundaries pins its head's level.
        for key, head in now_stretched & before.stretched:
            if self.level.get(head, inf) != prev.get(head, inf):
                raise AssertionError(
                    "level moved under a persistently stretched edge at %r" % (head,)
                )
        # Every finite node but the root is supported: some live edge has
        # level(other) + weight <= level(node).  Phase 1 relies on it.
        for u, lu in self.level.items():
            if u != self.root and not any(
                self.level.get(v, inf) + w <= lu for v, w in self.adj[u].values()
            ):
                raise AssertionError("node %r has no supporting edge" % (u,))
        # Residual consistency: an edge that was never stretched since its
        # insertion, whose tail-route fits under the cap, keeps the head's
        # level consistent - provided the head was finite before the batch.
        for u in self.adj:
            for key, (v, w) in self.adj[u].items():
                if (key, u) in before.ever_stretched or key in before.inserted:
                    continue
                route = self.level.get(v, inf) + w
                if (route <= self.cap and prev.get(u, inf) != inf
                        and self.level.get(u, inf) > route):
                    raise AssertionError(
                        "unstretched edge %r leaves node %r inconsistent" % (key, u)
                    )
        # Safety: levels never undercut true distances in the current multigraph.
        exact = dijkstra_bounded(self, self.root, self.cap)
        for u, lv in self.level.items():
            if lv < exact.get(u, inf):
                raise AssertionError("level below true distance at %r" % (u,))
        # Without insertions the tree is simply exact.
        if not before.ever_inserted and self.level != exact:
            raise AssertionError("insertion-free tree drifted from exact")
