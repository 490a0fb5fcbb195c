"""Single-source tree whose levels never decrease, repaired in two phases.

The tree holds only its levels, its root and its cap.  It reads its edges
through ``view``, any neighbour reader of the read protocol (``has_node``,
and ``neighbors(u)`` yielding ``(other, weight)``): an ``InducedSnapshot``
ball scope, an ``ArtificialSourceView`` set watcher, or the keyed multigraph
of a ``ShortcutGraph``.  It is built as ``MonotoneEsTree(view, root, cap,
levels=None)``, the ball-factory signature: one bounded Dijkstra, or none
when a ball passes its scope search, exact on the scope, as ``levels``.
Every weight is an integer >= 1, except the zero-weight edges at a set
watcher's virtual root, which is never pending.

Two entry points share one repair, and one pending rule: an endpoint is
pending only if the changed edge supported it at its old weight
(``supported_ends``, read before the change while no level has moved), so a
change on any other edge scans nothing.

* ``process_update(record)``, the ball-contract entry, after the view took
  the change.  On a view that only loses edges or sees weights rise the
  levels stay exact.
* ``end_batch(pending)``, the shortcut graph's batch boundary.  Its
  contract: ``pending`` holds every endpoint that an edge deleted or
  increased since the last boundary supported there (more is allowed), and
  an empty ``pending`` returns at once.  Edges inserted in between move no
  level, even when the new edge offers a shorter route, which is what keeps
  levels monotone under the interleaved insert/delete traffic of ball
  changes.  An edge whose head level exceeds the level of its tail plus its
  weight is called *stretched*; stretched edges can only come into
  existence at insertion time, and a node keeps its level frozen while one
  of its incident edges stays stretched.

Both return the sorted list of ``(node, new_level)`` changes (new level
``inf`` once above the cap).

Between repairs every finite node but the root is *supported*: some
incident edge has ``level(other) + weight <= level(node)``.  The new levels
are the least ones that keep this, never drop below the old ones, and turn
into ``inf`` above the cap.  The repair finds them in two phases, after
Ramalingam and Reps (J. Algorithms 21, 1996), reading each affected node's
adjacency at most once per phase:

1. The pending nodes are popped in ``(old level, node)`` order.  A node
   stays put if an unaffected neighbour still supports it (stretched edges
   count); otherwise it is *affected*, and each neighbour it supported is
   queued.  Weights >= 1 make a supporter's level strictly lower, so every
   supporter is decided before the nodes it supports, and so is every
   neighbour below the node's old level.  The scan of an affected node
   keeps what it read: the least route ``level(other) + weight`` through a
   decided unaffected neighbour, and the neighbours at or above its old
   level, which are checked against the final affected set when the phase
   ends.
2. Each affected node is seeded from those routes, without reading its
   adjacency again, then one Dijkstra over the affected set settles them
   with the key ``max(old level, level(other) + weight)``, and stops once
   every affected node is settled; so a one-node rise reads the node's
   neighbours once.  That key never falls below its argument, so the
   Dijkstra order stays exact (Knuth, IPL 6, 1977).  A node whose key
   passes the cap is never settled and becomes ``inf`` in one step, however
   high the cap.

``work_counter`` counts heap traffic (pushes and pops of the two repair
queues) and ``edge_scans`` counts adjacency entries read by the repair.
"""

from __future__ import annotations

import heapq
from math import inf

from .graph import dijkstra_bounded


class MonotoneEsTree:
    def __init__(self, view, root, cap, levels=None):
        self.view = view
        self.root = root
        self.cap = cap
        # node -> finite level; absent means above the cap
        if levels is None:
            self.level = dijkstra_bounded(view, root, cap)
        else:
            self.level = {v: d for v, d in levels.items() if d <= cap}
        self.work_counter = 0
        self.edge_scans = 0

    def query(self, node):
        """The node's level, inf above the cap."""
        return self.level.get(node, inf)

    # -- repair ----------------------------------------------------------------

    def supported_ends(self, u, v, w):
        """The endpoints that the edge (u, v) supports at weight ``w`` under
        the current levels: the only nodes whose support the edge's deletion
        or rise can take.  Weights >= 1 make that one endpoint at most."""
        lu, lv = self.level.get(u, inf), self.level.get(v, inf)
        if lu != inf and lv + w <= lu:
            return (u,)
        if lv != inf and lu + w <= lv:
            return (v,)
        return ()

    def process_update(self, record):
        """Repair after one change the view already holds; returns the
        changes."""
        pending = self.supported_ends(record.u, record.v, record.old_weight)
        return self._repair(pending) if pending else []

    def end_batch(self, pending):
        """Repair after a batch of edge operations; ``pending`` holds at
        least every endpoint that a deleted or raised edge supported at the
        last boundary.  Returns the changes."""
        return self._repair(pending) if pending else []

    def _repair(self, pending):
        """Repair the levels from the ``pending`` nodes (the two phases
        above); returns the sorted changes."""
        neighbors, level, cap = self.view.neighbors, self.level, self.cap
        # Phase 1: decide, lowest old level first, which nodes lost support.
        queue = [(level[u], u) for u in pending if u in level and u != self.root]
        heapq.heapify(queue)
        queued = {u for _, u in queue}
        pushes, pops, scans = len(queue), 0, 0
        affected = {}  # node -> old level
        # affected node -> (least route through a decided unaffected
        # neighbour, [(neighbour, level, weight)] of its undecided ones)
        routes = {}
        while queue:
            lu, u = heapq.heappop(queue)
            pops += 1
            least, later = inf, []
            for v, w in neighbors(u):
                scans += 1
                lv = level.get(v, inf)
                if lv + w <= lu:
                    if v not in affected:
                        break
                elif lv < lu:  # popped already if it was ever queued
                    if v not in affected and lv + w < least:
                        least = lv + w
                elif lv != inf:
                    later.append((v, lv, w))
            else:
                affected[u] = lu
                routes[u] = least, later
                for v, lv, w in later:
                    if lu + w <= lv and v not in queued:
                        queued.add(v)
                        heapq.heappush(queue, (lv, v))
                        pushes += 1
        # Phase 2: one Dijkstra over the affected set, keyed
        # max(old level, route), seeded from the routes phase 1 read through
        # unaffected neighbours.  A seed is already above the old level: no
        # unaffected neighbour supports an affected node.
        best = {}
        for u, (least, later) in routes.items():
            for v, lv, w in later:
                if lv + w < least and v not in affected:
                    least = lv + w
            if least <= cap:
                best[u] = least
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
            if len(settled) == len(affected):
                break
            for v, w in neighbors(u):
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

    # -- structure checks, over a keyed view (a ``KeyedMultigraph``) -------------

    def stretched_pairs(self):
        """Directed (edge key, head) pairs where the head level exceeds a
        usable route.  Routes above the cap do not count: once a node's best
        route passed the cap every incident route had, and routes only grow,
        so such edges can never offer the head anything again."""
        out = set()
        for u, row in self.view.adj.items():
            lu = self.level.get(u, inf)
            for key, (v, w) in row.items():
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
                self.level.get(v, inf) + w <= lu for v, w in self.view.neighbors(u)
            ):
                raise AssertionError("node %r has no supporting edge" % (u,))
        # Residual consistency: an edge that was never stretched since its
        # insertion, whose tail-route fits under the cap, keeps the head's
        # level consistent - provided the head was finite before the batch.
        for u, row in self.view.adj.items():
            for key, (v, w) in row.items():
                if (key, u) in before.ever_stretched or key in before.inserted:
                    continue
                route = self.level.get(v, inf) + w
                if (route <= self.cap and prev.get(u, inf) != inf
                        and self.level.get(u, inf) > route):
                    raise AssertionError(
                        "unstretched edge %r leaves node %r inconsistent" % (key, u)
                    )
        # Safety: levels never undercut true distances in the current multigraph.
        exact = dijkstra_bounded(self.view, self.root, self.cap)
        for u, lv in self.level.items():
            if lv < exact.get(u, inf):
                raise AssertionError("level below true distance at %r" % (u,))
        # Without insertions the tree is simply exact.
        if not before.ever_inserted and self.level != exact:
            raise AssertionError("insertion-free tree drifted from exact")
