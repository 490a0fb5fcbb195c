"""Approximate balls around every node, maintained under decremental updates.

Each node ``u`` of priority ``i`` watches its estimated distance to the node
set one priority level up, through a single-source contract instance rooted
at a virtual source attached to that set.  That watcher owns the value: it is
read through ``query`` and never copied, and after an update only the nodes
the watchers report as changed get their radius recomputed, in sorted order.
The watched value is bucketed on a (1 + eps) scale, at most ``MAX_BUCKETS``
buckets over n*W; the bucket determines a search radius ``r(u)``, read from a
per-system table of bucket powers and radii.  Whenever the radius grows, the
node's *scope* ``R(u)`` (all nodes within the radius, found by bounded
Dijkstra on the current graph) is frozen anew, copied into an
:class:`~decrsp.graph.InducedSnapshot`, and a fresh contract instance is
started on that snapshot, seeded from the scope search: a shortest path to a
scope node runs inside the scope, so the search's distances are exact on the
snapshot.  The snapshot's node set is the scope; a scope of ``u`` alone has
neither snapshot nor instance.  The ball ``B(u)`` consists of the scope
members whose clamped estimate stays under ``alpha * depth``; the test runs
in integers.  Each ball is one table ``{member: clamped estimate}``: a node
that leaves takes its estimate with it, so the table is exactly the ball.

An update touches only the balls it can change.  A ``member -> owners`` index,
kept in step by every scope rebuild, routes a change on edge (x, y) to the
owners whose scope holds both x and y, in sorted order; each of them applies
the change to its snapshot once, then feeds it to its inner instance.  So an
inner instance only ever sees changes on edges of its own snapshot, and no
view needs to filter records.  The index holds only scopes of two or more
nodes, as a lone scope never holds both ends of an edge.

Estimates reported for a pair (u, v) never decrease while v stays in B(u):
rebuilds may produce smaller raw values (larger scope, fresh instance), and
those are clamped away against the table's entry.  A (re)join starts from
its raw value.  All membership changes are journaled as JOIN /
LEAVE / EST events, sorted by (owner, member, kind), so downstream shortcut
graphs can replay them deterministically.  A ``BallEvent`` and the
``BallChangeSet`` that carries a batch of them are ``typing.NamedTuple``
classes, immutable like the graph's change records: tuple equality, and a
fixed field order.  An update that no watcher, scope or inner instance
notices returns the empty change set ``BallChangeSet(())``.

The contract factory is called as ``factory(view, root, depth, levels)``
and must return objects exposing ``query(node)`` and
``process_update(record) -> [(node, new_estimate)]`` whose estimates never
underestimate true distances in the supplied view and never decrease, such
as a ``MonotoneEsTree`` (exact here, as its views only lose edges, and
repaired in two phases) or a ``FullRangeSssp`` (``ApspState`` picks one per
view).  A set watcher's view is an ``ArtificialSourceView``, whose virtual
root edges are the only zero-weight edges a contract sees.  ``levels`` is
None for a set watcher; for a ball it is the scope search,
``{node: exact distance from root}`` over every node of the snapshot, which
an exact tree may take as its levels instead of searching again.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import inf
from typing import NamedTuple

from .graph import ArtificialSourceView, InducedSnapshot, ParamConfigError, dijkstra_bounded

JOIN, LEAVE, EST = "join", "leave", "est"
# Most (1 + eps)-buckets a ball system may span over n*W.  The radius loops
# step one bucket at a time, so a tiny bucket eps is rejected up front.
MAX_BUCKETS = 4096
_KIND_RANK = {JOIN: 0, LEAVE: 1, EST: 2}
_EMPTY = frozenset()


class BallEvent(NamedTuple):
    kind: str
    owner: int
    member: int
    estimate: object = None  # int | Fraction | inf; None for LEAVE

    def sort_key(self):
        return (self.owner, self.member, _KIND_RANK[self.kind])


class BallChangeSet(NamedTuple):
    events: tuple


_NO_CHANGES = BallChangeSet(())


class BallSystem:
    def __init__(self, view, assignment, contract_factory, *, alpha, depth,
                 bucket_eps):
        self.view = view
        self.assign = assignment
        self.factory = contract_factory
        self.alpha = Fraction(alpha)
        self.depth = depth  # int | Fraction
        self.eps = Fraction(bucket_eps)
        if not 0 < self.eps <= 1:
            raise ParamConfigError("bucket growth eps must lie in (0, 1], got %s" % (self.eps,))
        if self.alpha < 1:
            raise ParamConfigError(
                "need alpha >= 1, got alpha=%s" % (self.alpha,)
            )
        if not abs(depth) < inf:  # nan too
            raise ParamConfigError("ball depth must be finite, got %s" % (depth,))
        span = view.node_count() * view.max_weight
        growth_log = math.log1p(float(self.eps))  # 0.0 once eps underflows
        if span > 1 and (growth_log == 0 or math.log(span) / growth_log > MAX_BUCKETS):
            raise ParamConfigError(
                "bucket eps too small: more than %d buckets to cover n*W=%d"
                % (MAX_BUCKETS, span)
            )
        self._growth = (1 + self.eps).as_integer_ratio()
        # Bucket j reaches (1+eps)^j, kept as a (numerator, denominator) pair
        # so the bucket walk compares in integers; as 1 + eps is in lowest terms,
        # so are its powers, and each pair is the last one times its ratio.
        # The powers grow on demand, one entry past the largest bucket any
        # node has reached; a bucket's radius is computed when a node first
        # lands in it.
        self._powers = [(1, 1)]
        self._radii = {}
        # Membership is val <= threshold = num / den, decided in integers.
        self.threshold = self.alpha * depth
        bound = Fraction(self.threshold)
        self._thr_num, self._thr_den = bound.numerator, bound.denominator
        p = assignment.p
        # Distance-to-set watchers for levels 1 .. p-1, in level order and
        # fixed from here on; an empty level has none.
        self._set_inst = {}
        for i in range(1, p):
            members = assignment.level_sets[i]
            if members:
                art = ArtificialSourceView(view, members)
                self._set_inst[i] = contract_factory(art, art.source_id, depth, None)
        # Per-node ball state.
        self._bucket = {}  # node -> bucket index j reached so far
        self._radius = {}
        # member -> owners whose scope holds it, for scopes of two or more
        # nodes only: a lone scope never holds both ends of an edge.
        self._owners = {}
        self._snapshot = {}  # owner -> InducedSnapshot of its scope (None for a lone node)
        self._inner = {}
        # owner -> {member: clamped estimate}, the one record of the ball: it
        # holds members only, so an estimate leaves with its member.
        self._est = {}
        self.rebuild_counts = {}
        for u in view.node_ids():  # ascending
            self.rebuild_counts[u] = 0
            self._build_scope(u, self._current_radius(u), record=None)
            self.rebuild_counts[u] = 0  # the initial build is not an increase

    # -- radius bookkeeping ---------------------------------------------------

    def _watched_value(self, u):
        watcher = self._set_inst.get(self.assign.priority_of(u) + 1)
        return inf if watcher is None else watcher.query(u)

    def _current_radius(self, u):
        """Radius from the bucketed watched value; monotone as the value grows."""
        val = self._watched_value(u)
        if val == inf:
            return self.depth
        # val = num / den is an int or a Fraction; cross-multiplied, so no
        # Fraction is built (an int has denominator 1).
        num, den = val.numerator, val.denominator
        if num <= den:
            return 0
        x_num = num - den  # val - 1 = x_num / den
        powers = self._powers
        j = self._bucket.get(u, 0)
        while True:
            if j + 1 == len(powers):
                (p_num, p_den), (g_num, g_den) = powers[j], self._growth
                powers.append((p_num * g_num, p_den * g_den))
            p_num, p_den = powers[j + 1]
            if p_num * den > x_num * p_den:
                break
            j += 1
        self._bucket[u] = j
        radius = self._radii.get(j)
        if radius is None:
            radius = self._radii[j] = min(Fraction(*powers[j]) / self.alpha, self.depth)
        return radius

    def radius(self, u):
        return self._radius[u]

    def scope(self, u):
        snapshot = self._snapshot[u]
        return frozenset((u,)) if snapshot is None else snapshot.node_set

    def members(self, u):
        """u's ball as ``{member: clamped estimate}``; the live table, read only."""
        return self._est[u]

    def estimate(self, u, v):
        """Current clamped estimate for v as seen from u (inf outside the ball)."""
        return self._est[u].get(v, inf)

    def initial_membership(self):
        """Snapshot for journal replay: every ball's members with estimates."""
        return {u: dict(table) for u, table in self._est.items()}

    def _is_member_value(self, val):
        if isinstance(val, float):  # inf: finite estimates are int or Fraction
            return False
        # Cross-multiplied, so no Fraction is built (an int has denominator 1).
        return val.numerator * self._thr_den <= self._thr_num * val.denominator

    # -- scope (re)construction -------------------------------------------------

    def _build_scope(self, u, new_radius, record):
        """Freeze a new scope for u and start a fresh inner instance, seeded
        from the scope search.

        Emits JOIN / LEAVE / EST diffs against the previous ball into
        ``record`` (a list) when given.
        """
        self._radius[u] = new_radius
        self.rebuild_counts[u] += 1
        # Weights are ints, so floor(radius) bounds the same scope in ints.
        dist = dijkstra_bounded(self.view, u, math.floor(new_radius))
        snapshot = inner = None
        if len(dist) > 1:
            snapshot = InducedSnapshot(self.view, dist)
            inner = self.factory(snapshot, u, self.depth, dist)
        old = self._snapshot.get(u)
        old_scope = _EMPTY if old is None else old.node_set
        new_scope = _EMPTY if snapshot is None else snapshot.node_set
        owners = self._owners
        for v in old_scope - new_scope:
            owners[v].discard(u)
            if not owners[v]:
                del owners[v]
        for v in new_scope - old_scope:
            owners.setdefault(v, set()).add(u)
        self._snapshot[u] = snapshot
        self._inner[u] = inner
        old_table, table = self._est.get(u, {}), {}
        for v in sorted(dist):
            raw = 0 if v == u else inner.query(v)
            # A surviving member keeps its journaled monotonicity; a (re)join
            # starts a fresh lifetime from its raw value, so an estimate from
            # an earlier stay (possibly inf after the old frozen scope lost
            # its internal path) cannot keep it out of a grown ball.
            last = old_table.get(v)
            val = raw if last is None else max(raw, last)
            if self._is_member_value(val):
                table[v] = val
                if record is not None and (last is None or val > last):
                    record.append(BallEvent(JOIN if last is None else EST, u, v, val))
        if record is not None:
            record.extend(BallEvent(LEAVE, u, v) for v in old_table if v not in table)
        self._est[u] = table

    # -- updates -----------------------------------------------------------------

    def process_update(self, rec):
        """Digest one graph change; returns the journaled membership changes.

        Order inside the batch: set watchers first, then radius-driven scope
        rebuilds, then propagation into the surviving inner instances whose
        scope holds both endpoints: each one's snapshot takes the change
        first, then the instance itself.
        """
        events = []
        watched = set()
        for watcher in self._set_inst.values():
            changed = watcher.process_update(rec)
            if changed:
                watched.update(node for node, _ in changed)
        rebuilt = set()
        if watched:
            for u in sorted(watched & self._radius.keys()):  # no virtual sources
                new_r = self._current_radius(u)
                if new_r > self._radius[u]:
                    self._build_scope(u, new_r, record=events)
                    rebuilt.add(u)
        owners = self._owners
        for u in sorted(owners.get(rec.u, _EMPTY) & owners.get(rec.v, _EMPTY)):
            if u in rebuilt:
                continue  # its fresh snapshot already holds the change
            self._snapshot[u].apply_record(rec)
            for node, val in self._inner[u].process_update(rec):
                self._fold_inner(u, node, val, events)
        if not events:
            return _NO_CHANGES
        events.sort(key=BallEvent.sort_key)
        return BallChangeSet(tuple(events))

    def _fold_inner(self, u, v, new_val, events):
        table = self._est[u]
        old = table.get(v)
        if old is None or new_val <= old:
            return  # not a member, or no visible increase
        if self._is_member_value(new_val):
            table[v] = new_val
            events.append(BallEvent(EST, u, v, new_val))
        else:
            del table[v]
            events.append(BallEvent(LEAVE, u, v))
