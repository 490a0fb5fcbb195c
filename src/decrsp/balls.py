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
started on that snapshot.  The ball ``B(u)`` consists of the scope members
whose clamped estimate stays under ``alpha * depth + beta``; the test runs in
integers.

An update touches only the balls it can change.  A ``member -> owners`` index,
kept in step by every scope rebuild, routes a change on edge (x, y) to the
owners whose scope holds both x and y, in sorted order; each of them applies
the change to its snapshot once, then feeds it to its inner instance.  So an
inner instance only ever sees changes on edges of its own snapshot, and no
view needs to filter records.

Estimates reported for a pair (u, v) never decrease: rebuilds may produce
smaller raw values (larger scope, fresh instance), and those are clamped away
against the running maximum.  All membership changes are journaled as JOIN /
LEAVE / EST events, sorted by (owner, member, kind), so downstream shortcut
graphs can replay them deterministically.

The contract factory must return objects exposing ``query(node)`` and
``process_update(record) -> [(node, new_estimate)]`` whose estimates never
underestimate true distances in the supplied view and never decrease, such
as an ``EsTree`` or a ``FullRangeSssp`` (``ApspState`` picks one per view).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import inf

from .graph import ArtificialSourceView, InducedSnapshot, ParamConfigError, dijkstra_bounded

JOIN, LEAVE, EST = "join", "leave", "est"
# Most (1 + eps)-buckets a ball system may span over n*W.  The radius loops
# step one bucket at a time, so a tiny bucket eps is rejected up front.
MAX_BUCKETS = 4096
_KIND_RANK = {JOIN: 0, LEAVE: 1, EST: 2}


@dataclass(frozen=True)
class BallEvent:
    kind: str
    owner: int
    member: int
    estimate: object = None  # int | Fraction | inf; None for LEAVE

    def sort_key(self):
        return (self.owner, self.member, _KIND_RANK[self.kind])

    def line(self):
        """Dump format: ``JOIN u v est`` / ``LEAVE u v`` / ``EST u v new_est``."""
        if self.kind == LEAVE:
            return "LEAVE %d %d" % (self.owner, self.member)
        return "%s %d %d %s" % (self.kind.upper(), self.owner, self.member, self.estimate)


@dataclass(frozen=True)
class BallChangeSet:
    events: tuple

    def __bool__(self):
        return bool(self.events)


class BallSystem:
    def __init__(self, view, assignment, contract_factory, *, alpha, beta, depth,
                 bucket_eps):
        self.view = view
        self.assign = assignment
        self.factory = contract_factory
        self.alpha = Fraction(alpha)
        self.beta = Fraction(beta)
        self.depth = depth  # int | Fraction
        self.eps = Fraction(bucket_eps)
        if not 0 < self.eps <= 1:
            raise ParamConfigError("bucket growth eps must lie in (0, 1], got %s" % (self.eps,))
        if self.alpha < 1 or self.beta < 0:
            raise ParamConfigError(
                "need alpha >= 1 and beta >= 0, got alpha=%s beta=%s" % (self.alpha, self.beta)
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
        self._growth = 1 + self.eps
        # Bucket j reaches (1+eps)^j, kept as a (numerator, denominator) pair
        # so the bucket walk compares in integers; both tables grow on demand,
        # one entry past the largest bucket any node has reached.
        self._powers = [(1, 1)]
        self._radii = [self._radius_of(Fraction(1))]
        # Membership is val <= threshold = num / den, decided in integers.
        self.threshold = self.alpha * depth + self.beta
        bound = Fraction(self.threshold)
        self._thr_num, self._thr_den = bound.numerator, bound.denominator
        self._nodes = sorted(view.node_ids())
        p = assignment.p
        # Distance-to-set watchers for levels 1 .. p-1; an empty level has none.
        self._set_inst = {}
        for i in range(1, p):
            members = assignment.level_sets[i]
            if members:
                art = ArtificialSourceView(view, members)
                self._set_inst[i] = contract_factory(art, art.source_id, depth)
        # Per-node ball state.
        self._bucket = {}  # node -> bucket index j reached so far
        self._radius = {}
        self._scope = {}
        self._owners = {u: set() for u in self._nodes}  # member -> owners whose scope holds it
        self._snapshot = {}  # owner -> InducedSnapshot of its scope (None for a lone node)
        self._inner = {}
        self._est = {}  # node -> {member: clamped estimate}; doubles as history
        self._members = {}
        self.ever_members = {}  # node -> every member the ball has ever held
        self.rebuild_counts = {}
        for u in self._nodes:
            self.rebuild_counts[u] = 0
            self._est[u] = {}
            self._members[u] = set()
            self.ever_members[u] = set()
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
                power = Fraction(*powers[j]) * self._growth
                powers.append((power.numerator, power.denominator))
                self._radii.append(self._radius_of(power))
            p_num, p_den = powers[j + 1]
            if p_num * den > x_num * p_den:
                break
            j += 1
        self._bucket[u] = j
        return self._radii[j]

    def _radius_of(self, power):
        r = (power - self.beta) / self.alpha
        if r < 0:
            r = 0
        return min(r, self.depth)

    def radius(self, u):
        return self._radius[u]

    def scope(self, u):
        return self._scope[u]

    def members(self, u):
        return self._members[u]

    def estimate(self, u, v):
        """Current clamped estimate for v as seen from u (inf outside the ball)."""
        if v in self._members[u]:
            return self._est[u][v]
        return inf

    def membership(self, u):
        return set(self._members[u]), {v: self._est[u][v] for v in self._members[u]}

    def initial_membership(self):
        """Snapshot for journal replay: every ball's members with estimates."""
        return {u: {v: self._est[u][v] for v in self._members[u]} for u in self._nodes}

    def _is_member_value(self, val):
        if isinstance(val, float):  # inf; finite estimates are int or Fraction
            return val != inf and val <= self.threshold
        # Cross-multiplied, so no Fraction is built (an int has denominator 1).
        return val.numerator * self._thr_den <= self._thr_num * val.denominator

    # -- scope (re)construction -------------------------------------------------

    def _build_scope(self, u, new_radius, record):
        """Freeze a new scope for u and start a fresh inner instance.

        Emits JOIN / LEAVE / EST diffs against the previous ball into
        ``record`` (a list) when given.
        """
        self._radius[u] = new_radius
        self.rebuild_counts[u] += 1
        # Weights are ints, so floor(radius) bounds the same scope in ints.
        scope = frozenset(dijkstra_bounded(self.view, u, math.floor(new_radius)))
        owners = self._owners
        for v in self._scope.get(u, ()):
            owners[v].discard(u)
        for v in scope:
            owners[v].add(u)
        self._scope[u] = scope
        snapshot = inner = None
        if len(scope) > 1:
            snapshot = InducedSnapshot(self.view, scope)
            inner = self.factory(snapshot, u, self.depth)
        self._snapshot[u] = snapshot
        self._inner[u] = inner
        history = self._est[u]
        old_members = self._members[u]
        new_members = set()
        raised = set()  # surviving members whose clamped estimate rose
        for v in sorted(scope):
            raw = 0 if v == u else inner.query(v)
            if v in old_members:
                # A surviving membership keeps its journaled monotonicity.
                val = max(raw, history[v])
                if val > history[v]:
                    raised.add(v)
            else:
                # A (re)join starts a fresh lifetime: an estimate left over
                # from an earlier stay (possibly inf after the old frozen
                # scope lost its internal path) must not clamp it, or the
                # node could never rejoin a grown ball.
                val = raw
            history[v] = val
            if self._is_member_value(val):
                new_members.add(v)
        # A member's history is its last journaled estimate, so EST events
        # fire exactly on visible increases of surviving members.
        if record is not None:
            for v in sorted(old_members - new_members):
                record.append(BallEvent(LEAVE, u, v))
            for v in sorted(new_members - old_members):
                record.append(BallEvent(JOIN, u, v, history[v]))
            for v in sorted(raised & new_members):
                record.append(BallEvent(EST, u, v, history[v]))
        self._members[u] = new_members
        self.ever_members[u] |= new_members

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
        for i in sorted(self._set_inst):
            watched.update(node for node, _ in self._set_inst[i].process_update(rec))
        rebuilt = set()
        for u in sorted(watched & self._radius.keys()):  # no virtual sources
            new_r = self._current_radius(u)
            if new_r > self._radius[u]:
                self._build_scope(u, new_r, record=events)
                rebuilt.add(u)
        owners = self._owners
        for u in sorted(owners[rec.u] & owners[rec.v]):
            if u in rebuilt:
                continue  # its fresh snapshot already holds the change
            self._snapshot[u].apply_record(rec)
            for node, val in self._inner[u].process_update(rec):
                self._fold_inner(u, node, val, events)
        events.sort(key=BallEvent.sort_key)
        return BallChangeSet(tuple(events))

    def _fold_inner(self, u, v, new_val, events):
        history = self._est[u]
        old = history.get(v, 0)
        val = max(new_val, old)
        if val == old:
            return
        history[v] = val
        if v not in self._members[u]:
            return
        if self._is_member_value(val):
            events.append(BallEvent(EST, u, v, val))
        else:
            self._members[u].discard(v)
            events.append(BallEvent(LEAVE, u, v))

    # -- structural witness (test support; needs true distances) -----------------

    def structural_witness(self, u, v, dist_fn):
        """Classify the pair: ("in_ball",...), ("witness", node, priority), or
        ("none",...).  ``dist_fn(x, y)`` must return true current distances."""
        if v in self._members[u]:
            return ("in_ball", None, None)
        i = self.assign.priority_of(u)
        a = self._growth * self.alpha
        b = self._growth * self.beta + 1
        x = dist_fn(u, v)
        for v2 in self._nodes:
            j = self.assign.priority_of(v2)
            if j <= i or u not in self._members[v2]:
                continue
            if dist_fn(u, v2) <= witness_reach(a, b, x, j - i):
                return ("witness", v2, j)
        return ("none", None, None)

    def witness_proviso_holds(self, u, v, dist_fn):
        """True when the structural property is required to hold for (u, v)."""
        x = dist_fn(u, v)
        if x == inf:
            return False
        i = self.assign.priority_of(u)
        chain = self.assign.p - 1 - i
        if chain == 0:
            return x <= self.depth
        a = self._growth * self.alpha
        b = self._growth * self.beta + 1
        return witness_reach(a, b, x, chain) <= self.depth

    def max_rebuilds_allowed(self):
        """Radius increases per node: one per bucket crossing plus slack."""
        count, power = 0, Fraction(1)
        while power < self.depth:
            power *= self._growth
            count += 1
        return count + 2


def radius_from_watched(val, eps, alpha, beta, depth):
    """Pure form of the search radius for a watched set-distance estimate:

    min(((1+eps)^floor(log_{1+eps}(val-1)) - beta) / alpha, depth), with the
    conventions val <= 1 -> 0 and val = inf -> depth, floored at zero.
    """
    if val == inf:
        return depth
    if val <= 1:
        return 0
    growth = 1 + Fraction(eps)
    x = val - 1
    power = Fraction(1)
    while power * growth <= x:
        power *= growth
    r = (power - Fraction(beta)) / Fraction(alpha)
    if r < 0:
        r = 0
    return min(r, depth)


def witness_reach(a, b, x, l):
    """Distance within which a higher-priority witness must exist, per chain

    length l >= 1: a * (a+1)^(l-1) * x + ((a+1)^l - 1) * b / a."""
    if l < 1:
        raise AssertionError("chain length l=%r must be >= 1" % (l,))
    if x == inf:
        return inf
    grow = (a + 1) ** (l - 1)
    return a * grow * x + (grow * (a + 1) - 1) * b / a

