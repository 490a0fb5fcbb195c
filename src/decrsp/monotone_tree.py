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
stretched.

Batch protocol: ``begin_batch``; any number of edge operations;
``end_batch`` runs the level-raising fixpoint and returns the sorted list of
``(node, new_level)`` changes (new level may be ``inf`` once above the cap).

Each node keeps a lazily re-keyed heap of ``(candidate level, edge key)``
over its incident edges, where the candidate is ``level(other) + weight``.
An entry is written when the edge is inserted (or the tree is built) and is
never refreshed eagerly: levels and weights only grow, so a stored
candidate stays a lower bound on the live one.  A level rise or a weight
increase therefore touches no heap.  When a node asks for its minimum, a
stale top is re-keyed in place to its live candidate, or popped once that
candidate is ``inf`` (a cut-off node never comes back) or its edge is gone;
a top that matches its live candidate is the true minimum, and the
``(candidate, key)`` order makes its key the smallest among the ties.
``work_counter`` counts heap traffic, which is proportional to
(edges ever present) * (level cap) plus the number of edge operations.
"""

from __future__ import annotations

import heapq
from math import inf

from .graph import dijkstra_bounded


class DuplicateEdgeError(ValueError):
    """Raised when inserting an edge key that is currently present."""


class MonotoneEsTree:
    def __init__(self, root, level_cap, edges=(), *, debug=False):
        self.root = root
        self.cap = level_cap
        self.debug = debug
        self.adj = {root: {}}  # node -> {edge_key: (other, weight)}
        self.level = {}  # node -> finite level; absent = inf
        self.parent = {}  # node -> edge key it hangs from
        self._nheap = {root: []}  # node -> [(candidate level, edge key)]
        self._q = []
        self._pending = set()
        self.work_counter = 0
        self._ever_inserted = False
        # Debug bookkeeping for the batch-boundary structure checks.
        self._prev_levels = {}
        self._inserted_keys = set()
        self._stretched_prev = set()  # directed: (edge key, head node)
        self._ever_stretched = set()
        for key, u, v, w in edges:
            self._add_edge_raw(key, u, v, w)
        self._initialize()

    # -- construction -------------------------------------------------------

    def _add_edge_raw(self, key, u, v, w):
        assert u != v and w >= 0
        if key in self.adj.get(u, ()):
            raise DuplicateEdgeError("edge key %r already present" % (key,))
        self.adj.setdefault(u, {})[key] = (v, w)
        self.adj.setdefault(v, {})[key] = (u, w)
        self._nheap.setdefault(u, [])
        self._nheap.setdefault(v, [])

    def _initialize(self):
        """Exact levels up to the cap, then seed all candidate heaps."""
        self.level = dist = dijkstra_bounded(self, self.root, self.cap)
        self.parent = {self.root: None}
        for u in self.adj:
            if u == self.root or u not in dist:
                continue
            best, best_key = inf, None
            for key, (v, w) in self.adj[u].items():
                cand = dist.get(v, inf) + w
                if cand < best or (cand == best and _key_lt(key, best_key)):
                    best, best_key = cand, key
            assert best == dist[u]
            self.parent[u] = best_key
        for u in self.adj:
            lu = dist.get(u, inf)
            if lu == inf:
                continue
            for key, (v, w) in self.adj[u].items():
                heapq.heappush(self._nheap[v], (lu + w, key))
                self.work_counter += 1
        if self.debug:
            self._stretched_prev = self._stretched_set()
            self._ever_stretched = set(self._stretched_prev)
            self._prev_levels = dict(self.level)

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

    def begin_batch(self):
        if self.debug:
            self._prev_levels = dict(self.level)
            self._inserted_keys = set()

    def insert_edge(self, key, u, v, w):
        """Record a new edge.  Levels are left untouched on purpose."""
        self._add_edge_raw(key, u, v, w)
        self._ever_inserted = True
        lu, lv = self.level.get(u, inf), self.level.get(v, inf)
        if lu != inf:
            heapq.heappush(self._nheap[v], (lu + w, key))
            self.work_counter += 1
        if lv != inf:
            heapq.heappush(self._nheap[u], (lv + w, key))
            self.work_counter += 1
        if self.debug:
            self._inserted_keys.add(key)

    def increase_edge(self, key, u, new_weight):
        """Raise the weight of the edge with this key (strictly)."""
        v, w = self.adj[u][key]
        assert new_weight > w, "weight must strictly increase"
        self.adj[u][key] = (v, new_weight)
        self.adj[v][key] = (u, new_weight)
        # The old heap entries stay valid lower bounds; see the module notes.
        self._enqueue(u)
        self._enqueue(v)

    def delete_edge(self, key, u):
        v, _ = self.adj[u][key]
        del self.adj[u][key]
        del self.adj[v][key]
        if self.debug:
            self._stretched_prev.discard((key, u))
            self._stretched_prev.discard((key, v))
            self._ever_stretched.discard((key, u))
            self._ever_stretched.discard((key, v))
        self._enqueue(u)
        self._enqueue(v)

    def end_batch(self):
        changes = self._run_fixpoint()
        if self.debug:
            self._check_invariants()
            now = self._stretched_set()
            self._stretched_prev = now
            self._ever_stretched |= now
        return changes

    # -- fixpoint ----------------------------------------------------------------

    def _enqueue(self, u):
        if u == self.root or u in self._pending:
            return
        self._pending.add(u)
        heapq.heappush(self._q, (self.level.get(u, inf), u))
        self.work_counter += 1

    def _min_candidate(self, u):
        """Current min over incident edges of level(other) + weight, lazily.

        A stale top is re-keyed to its live candidate; a top whose edge is
        gone or whose candidate is ``inf`` is dropped.
        """
        heap = self._nheap[u]
        alive = self.adj.get(u, {})
        level = self.level
        while heap:
            val, key = heap[0]
            edge = alive.get(key)
            if edge is not None:
                v, w = edge
                live = level.get(v, inf) + w
                if live == val:
                    return val, key
                if live != inf:
                    heapq.heapreplace(heap, (live, key))
                    self.work_counter += 1
                    continue
            heapq.heappop(heap)
            self.work_counter += 1
        return inf, None

    def _run_fixpoint(self):
        changed = {}
        while self._q:
            _, u = heapq.heappop(self._q)
            self.work_counter += 1
            if u not in self._pending:
                continue
            self._pending.discard(u)
            cur = self.level.get(u, inf)
            best, best_key = self._min_candidate(u)
            if best <= cur:
                # Covers cur == inf too: nothing exceeds inf, and levels
                # never come back down once a node is cut off.
                if cur != inf:
                    self.parent[u] = best_key
                continue
            if u not in changed:
                changed[u] = cur
            new = best if best <= self.cap else inf
            if new == inf:
                self.level.pop(u, None)
                self.parent.pop(u, None)
            else:
                self.level[u] = new
                self.parent[u] = best_key
            seen = set()
            for key, (v, w) in self.adj[u].items():
                if v not in seen:
                    seen.add(v)
                    self._enqueue(v)
        return [(u, self.level.get(u, inf)) for u in sorted(changed)]

    # -- debug checks ---------------------------------------------------------------

    def _stretched_set(self):
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

    def _check_invariants(self):
        prev = self._prev_levels
        now_stretched = self._stretched_set()
        # Levels never decrease.
        for u in set(prev) | set(self.level):
            assert self.level.get(u, inf) >= prev.get(u, inf), (
                "level decreased at %r" % (u,)
            )
        # New stretched edges exist only because of this batch's insertions.
        fresh = now_stretched - self._stretched_prev
        for key, head in fresh:
            assert key in self._inserted_keys, (
                "edge %r became stretched without an insertion" % (key,)
            )
        # An edge stretched at both boundaries pins its head's level.
        for key, head in now_stretched & self._stretched_prev:
            assert self.level.get(head, inf) == prev.get(head, inf), (
                "level moved under a persistently stretched edge at %r" % (head,)
            )
        # Tree edges satisfy level(u) >= level(parent) + weight.
        for u, key in self.parent.items():
            if key is None:
                continue
            v, w = self.adj[u][key]
            assert self.level.get(u, inf) >= self.level.get(v, inf) + w, (
                "parent inequality violated at %r" % (u,)
            )
        # Residual consistency: an edge that was never stretched since its
        # insertion, whose tail-route fits under the cap, keeps the head's
        # level consistent - provided the head was finite before the batch.
        for u in self.adj:
            for key, (v, w) in self.adj[u].items():
                if (key, u) in self._ever_stretched or key in self._inserted_keys:
                    continue
                route = self.level.get(v, inf) + w
                if route <= self.cap and prev.get(u, inf) != inf:
                    assert self.level.get(u, inf) <= route, (
                        "unstretched edge %r leaves node %r inconsistent" % (key, u)
                    )
        # Safety: levels never undercut true distances in the current multigraph.
        exact = dijkstra_bounded(self, self.root, self.cap)
        for u, lv in self.level.items():
            assert lv >= exact.get(u, inf), "level below true distance at %r" % (u,)
        # Without insertions the tree is simply exact.
        if not self._ever_inserted:
            assert self.level == exact, "insertion-free tree drifted from exact"


def _key_lt(a, b):
    if b is None:
        return True
    try:
        return a < b
    except TypeError:
        return repr(a) < repr(b)
