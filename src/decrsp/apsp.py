"""All-pairs approximate distances under deletions and weight increases.

A priority-sampled ball system stores a distance estimate for every
(owner, member) pair whose ball relation holds.  Each set watcher and ball
scope runs a single-source contract: a bare exact ``EsTree`` when every
distance band of its view is finer than the integer weights
(``exact_band_depth``), a ``FullRangeSssp`` otherwise.  On top of that,
every node ``v`` keeps one min-heap per priority class ``j`` above its own
priority, holding the owners of priority ``j`` whose ball contains ``v``,
keyed by the journaled estimate; the heap minimum is the cheapest
priority-j witness reachable from ``v``.  No tail reads a class at or below
a node's priority, so those classes have no heap entries.  Each owner's
reader set is the inverse of the heap tops: the nodes whose witness it is.

A pair query walks the priority ladder: the tail of a node ``x`` toward the
target ``v`` is its journaled ball estimate when ``v`` sits in ``x``'s ball,
and otherwise the best witness-leg-plus-tail sum over the cheapest witness
of each higher priority class.  Priorities strictly increase along the
recursion, so one query computes at most k^k fresh tails.  A pair with a
journal entry reads it as its tail.  The other tails, the witness-chain
ones, go into an ``(x, v) -> tail`` table that queries share, so a query
whose tails are all journaled or cached computes none.  A chain tail reads
the witness tops of ``x`` above its priority and their tails toward ``v``;
all of these change only when the ball journal is ingested.  A node one
class below the top reads only top-level witnesses, whose tails are their
journal entries, so an update recomputes its chain tails in place as leg
plus entry.  A deeper chain tail (k >= 3) is dropped when its node's tops
move or, through the reader sets, when a tail it read changed.  The
returned estimate never underestimates and stays within a ((2 + eps)^k - 1)
stretch factor.  Every internal component runs at eps/7, which absorbs the
error compounding of the witness chain.

Each answered pair sits in exactly one of two per-node rows.  While its tail
is unchanged, ``_served[u][v]`` holds the answer, and a query returns it with
one row read.  When an update rewrites the pair's journal entry, or drops or
changes its chain tail, the answer moves to ``_held[u][v]``, where it is the
floor that the pair's next answer is clamped to: a cheaper witness chain can
appear as balls change, and the answers handed out must never decrease.  No
answer is raised at update time, so a pair's answer is always the largest
of its tails at the queries that asked for it.

A failure inside an update after the graph changed leaves the balls half
applied, so it poisons the state, as in ``FullRangeSssp``: every later query
and update raises ``UpdateError``.  Nothing can be served again, so the ball
system and every table are dropped at the fault.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from math import inf

from .balls import LEAVE, BallSystem
from .graph import ParamConfigError, UpdateError
from .es_tree import EsTree
from .layered import POISONED, FullRangeSssp, exact_band_depth
from .sampling import sample_priorities


class ApspState:
    """Ball system plus per-(node, priority) witness heaps."""

    def __init__(self, graph, k, eps, seed, *, c=2.0):
        eps = Fraction(eps)
        if not (0 < eps <= 1):
            raise ParamConfigError("need 0 < eps <= 1, got %s" % (eps,))
        self.graph = graph
        self.k = k
        self.eps = eps
        # Every internal component runs at a seventh of the requested
        # error; three compounding (1 + eps/7) factors per witness hop
        # stay within the advertised (2 + eps)^k - 1 stretch.
        self.eps_run = eps / 7
        self.assignment = sample_priorities(graph, k, c, seed)
        counter = itertools.count(seed * 1_000_003 + 1)
        eps_run = self.eps_run

        # The factory lives in ``self.balls``; capturing ``self`` would make
        # every state a reference cycle that only the cyclic GC reclaims.
        # Every contract draws a seed, so a FullRangeSssp gets the same seed
        # whichever contracts before it were bare trees.  A bare tree takes
        # a ball's scope search as its levels.
        def factory(view, root, depth, levels):
            seed = next(counter)
            exact = exact_band_depth(view.node_count(), view.max_weight, eps_run)
            if exact is None:
                return FullRangeSssp(view, root, eps_run, seed=seed)
            return EsTree(view, root, exact, levels)

        horizon = graph.node_count() * graph.max_weight
        self.balls = BallSystem(
            graph,
            self.assignment,
            factory,
            alpha=1 + self.eps_run,
            depth=horizon,
            bucket_eps=self.eps_run,
        )
        self._keys = {}  # (owner, member) -> journaled estimate
        # u -> {v: answer}: served while the tail (u, v) is unchanged, held
        # as the clamp floor of the pair's next answer once it changed.
        self._served = {v: {} for v in graph.node_ids()}
        self._held = {v: {} for v in graph.node_ids()}
        # x -> {v: witness-chain tail from x toward v}, for pairs without a
        # journal entry; one row per node so that a node's whole row can be
        # dropped or recomputed at once.
        self._tails = {v: {} for v in graph.node_ids()}
        # owner -> the nodes x that have it as a witness top: every chain
        # tail of x toward v reads (owner, v).
        self._readers = {v: set() for v in graph.node_ids()}
        self._tails_computed = 0
        self._tails_dropped = 0
        self._tails_refreshed = 0
        self._poisoned = False
        self._heaps = {v: [[] for _ in range(k)] for v in graph.node_ids()}
        # One class below the top, every witness top sits at priority k - 1,
        # so a chain tail is a leg plus a top-level journal entry.
        self._below_top = frozenset(v for v in graph.node_ids()
                                    if self.assignment.priority_of(v) == k - 2)
        self.last_query_expansions = 0
        priority_of = self.assignment.priority_of
        for owner, table in self.balls.initial_membership().items():
            j = priority_of(owner)
            for member, est in table.items():
                self._keys[(owner, member)] = est
                if j > priority_of(member):
                    heapq.heappush(self._heaps[member][j], (est, owner))
        for v, heaps in self._heaps.items():
            for heap in heaps:
                if heap:
                    self._readers[heap[0][1]].add(v)

    def stats(self):
        """Journal, tail-table and served-row sizes, plus four counters that
        never decrease: the balls' scope rebuilds and the tails computed,
        dropped and recomputed in place at update time.  ``tails_cached``
        counts witness-chain tails only, since a pair with a journal entry
        reads that as its tail.  A poisoned state reads 0 for every size and
        keeps the counters it had at the fault."""
        balls = self.balls
        return {
            "answers_served": sum(map(len, self._served.values())),
            "ball_rebuilds": (self._ball_rebuilds if balls is None
                              else sum(balls.rebuild_counts.values())),
            "heap_pairs": len(self._keys),
            "tails_cached": sum(map(len, self._tails.values())),
            "tails_computed": self._tails_computed,
            "tails_dropped": self._tails_dropped,
            "tails_refreshed": self._tails_refreshed,
        }

    # -- witness heaps --------------------------------------------------------

    def _clean(self, v, j):
        heap = self._heaps[v][j]
        while heap and self._keys.get((heap[0][1], v)) != heap[0][0]:
            heapq.heappop(heap)

    def witness(self, v, j):
        """Cheapest priority-j owner whose ball contains v: (owner, estimate).

        Returns None when no such owner exists, and for every class j at or
        below v's own priority, which no tail reads.  Ties in the estimate
        are broken by the smaller owner id.  Heap tops are kept fresh at
        update time, so this is read-only.
        """
        heap = self._heaps[v][j]
        if not heap:
            return None
        est, owner = heap[0]
        if self._keys.get((owner, v)) != est:
            raise AssertionError("stale witness heap top")
        return owner, est

    def _ingest(self, events):
        """Apply a journal batch to the keys, and to the heaps of the classes
        above each member's priority; move every node whose witness top moved
        from its old top's reader set to its new top's; then recompute or
        drop every cached tail that read a journal entry or a witness top the
        batch changed."""
        priority_of, readers = self.assignment.priority_of, self._readers
        tops = {}  # (member, j) -> heap top before this batch
        stale = []  # (owner, member) pairs whose journal entry changed
        for event in events:
            owner, member = event.owner, event.member
            if event.kind == LEAVE:
                self._keys.pop((owner, member), None)
            else:  # JOIN and EST both (re)key the pair
                self._keys[(owner, member)] = event.estimate
            stale.append((owner, member))
            j = priority_of(owner)
            if j > priority_of(member):
                heap = self._heaps[member][j]
                if (member, j) not in tops:
                    tops[(member, j)] = heap[0] if heap else None
                if event.kind != LEAVE:
                    heapq.heappush(heap, (event.estimate, owner))
        rows = set()  # nodes whose witness top moved
        for (v, j), top in tops.items():
            self._clean(v, j)
            heap = self._heaps[v][j]
            new = heap[0] if heap else None
            if new != top:
                rows.add(v)
                if top is not None:
                    readers[top[1]].discard(v)
                if new is not None:
                    readers[new[1]].add(v)
        self._drop_tails(stale, rows)

    def _drop_tails(self, stale, rows):
        """Bring the tail table up to date with an ingested journal batch:
        ``stale`` names the pairs whose journal entry it rewrote, ``rows`` the
        nodes whose witness top moved; the reader sets already name the new
        tops.

        A rewritten pair loses its cached chain tail, if it had one.  A moved
        row one class below the top, where its tops all sit at priority
        k - 1, is recomputed in place: each tail becomes the new top's leg
        plus that top's entry toward v.  A deeper moved row is dropped whole.
        Then, transitively, come the readers of every tail that changed or
        went: the cached tails (y, v) whose node y has that tail's node among
        its witness tops.  A reader one class below the top is recomputed in
        place unless its row just was, a deeper one is dropped.  The served
        answer of every pair whose tail changed becomes its pair's held
        floor.
        """
        tails, keys, readers = self._tails, self._keys, self._readers
        served, held, heaps, below_top = self._served, self._held, self._heaps, self._below_top
        top = self.k - 1
        dropped = sum(tails[x].pop(v, None) is not None for x, v in stale)
        refreshed = 0
        changed = stale  # (x, v) whose tail changed or went
        for x in rows:
            row = tails[x]
            if x not in below_top:
                dropped += len(row)
                tails[x] = {}
                changed += [(x, v) for v in row]
                continue
            heap = heaps[x][top]
            leg, owner = heap[0] if heap else (inf, None)
            refreshed += len(row)
            for v, tail in row.items():
                new = leg + keys.get((owner, v), inf)
                if new != tail:
                    row[v] = new
                    changed.append((x, v))
        while changed:
            x, v = changed.pop()
            answer = served[x].pop(v, None)
            if answer is not None:
                held[x][v] = answer
            for y in readers[x]:
                row = tails[y]
                tail = row.get(v)
                if tail is None or y in rows:
                    continue
                if y in below_top:  # x is y's top-level witness
                    refreshed += 1
                    new = heaps[y][top][0][0] + keys.get((x, v), inf)
                    if new == tail:
                        continue
                    row[v] = new
                else:
                    del row[v]
                    dropped += 1
                changed.append((y, v))
        self._tails_dropped += dropped
        self._tails_refreshed += refreshed

    def check_heaps_against_journal(self):
        """Heap minima must equal brute-force minima over the journaled keys
        of the classes above each member's priority, and the reader sets must
        be the inverse of the heap tops."""
        priority_of = self.assignment.priority_of
        best = {}
        for (owner, member), est in self._keys.items():
            j = priority_of(owner)
            cur = best.get((member, j))
            if j > priority_of(member) and (cur is None or (est, owner) < cur):
                best[(member, j)] = (est, owner)
        readers = {v: set() for v in self._readers}
        for v in self.graph.node_ids():
            for j in range(self.k):
                top = self.witness(v, j)
                want = best.get((v, j))
                if top != (None if want is None else (want[1], want[0])):
                    raise AssertionError((v, j, top, want))
                if top is not None:
                    readers[top[0]].add(v)
        if readers != self._readers:
            raise AssertionError("reader sets are not the inverse of the witness tops")

    def check_tails_against_recursion(self):
        """Every cached tail must belong to a pair without a journal entry and
        equal the witness-chain recursion from scratch."""

        def fresh(x, v):
            tail = self._keys.get((x, v), inf)
            if tail == inf:
                for j in range(self.assignment.priority_of(x) + 1, self.k):
                    top = self.witness(x, j)
                    if top is not None:
                        tail = min(tail, top[1] + fresh(top[0], v))
            return tail

        for x, row in self._tails.items():
            for v, tail in row.items():
                if (x, v) in self._keys:
                    raise AssertionError("cached tail %r has a journal entry" % ((x, v),))
                want = fresh(x, v)
                if tail != want:
                    raise AssertionError("cached tail %r is %s, recursion gives %s"
                                         % ((x, v), tail, want))

    def check_answer_rows(self):
        """Every served answer must have its tail journaled or cached and be at
        least that tail, and no pair may be both served and held."""
        for u, row in self._served.items():
            tails, held = self._tails[u], self._held[u]
            for v, answer in row.items():
                tail = self._keys.get((u, v), tails.get(v))
                if tail is None:
                    raise AssertionError("served answer %r has no cached tail" % ((u, v),))
                if answer < tail:
                    raise AssertionError("served answer %r is %s, below its tail %s"
                                         % ((u, v), answer, tail))
                if v in held:
                    raise AssertionError("pair %r is both served and held" % ((u, v),))

    # -- updates ----------------------------------------------------------------

    def process_update(self, event):
        """Advance the graph, the balls, and the witness heaps by one change.

        A rejected update raises ``UpdateError`` before anything moves, and
        poisons nothing.  Any failure after the graph changed poisons the
        state; from then on this raises ``UpdateError`` before the graph
        changes.
        """
        if self._poisoned:
            raise UpdateError(POISONED)
        record = self.graph.apply_update(event)
        try:
            changes = self.balls.process_update(record)
            self._ingest(changes.events)
        except BaseException:
            self._poison()
            raise

    def _poison(self):
        """Refuse every later query and update, and free what served them."""
        self._poisoned = True
        self._ball_rebuilds = self.stats()["ball_rebuilds"]
        self.balls = None
        self._keys, self._heaps, self._tails, self._served, self._held = {}, {}, {}, {}, {}
        self._readers = {}

    # -- queries ----------------------------------------------------------------

    def query(self, u, v):
        """Approximate distance between u and v; inf when no witness chain.

        ``last_query_expansions`` counts the tails this call computed: at
        most k^k, and 0 when every tail it needed was journaled or cached.
        Chain tails stay cached across updates; each update recomputes or
        drops only those whose journal entry, witness tops or recursed-into
        tails it changed, so a pair whose tail changed computes nothing
        unless its tail was dropped.  A cheaper witness chain can appear as
        balls and witnesses change, so the answer is clamped to the largest
        one returned before for the pair.  The clamped value stays sound and
        within the stretch bound because distances only grow.  While the
        pair's tail is unchanged its answer cannot change, so it is served
        from the pair's row as is.
        A poisoned state serves nothing: every query raises ``UpdateError``.
        """
        if type(u) is not int or type(v) is not int:  # bool too: True == 1
            raise ParamConfigError("node ids must be ints, got %r and %r" % (u, v))
        try:
            answer = self._served[u][v]
        except KeyError:
            pass  # answered outside the handler, so its errors are not chained
        else:
            self.last_query_expansions = 0
            return answer
        return self._answer(u, v)

    def _answer(self, u, v):
        """Answer a pair that is not served: its journal entry or chain tail,
        computed unless the table has it, clamped to the pair's held floor;
        then serve it."""
        if self._poisoned:
            raise UpdateError(POISONED)
        tails = self._tails
        for x in (u, v):
            if x not in tails:
                raise ParamConfigError("node %r is not in the graph" % (x,))
        tail = self._keys.get((u, v))
        if tail is None:
            tail = tails[u].get(v)
        if tail is None:
            computed = self._tails_computed
            tail = self._tail(u, v)
            self.last_query_expansions = self._tails_computed - computed
        else:
            self.last_query_expansions = 0
        floor = self._held[u].pop(v, 0)
        answer = floor if floor > tail else tail
        self._served[u][v] = answer
        return answer

    def _tail(self, x, v):
        """Best witness-leg-plus-tail sum from x toward v, a pair without a
        journal entry; the caller has found no table entry for (x, v)."""
        self._tails_computed += 1
        keys, tails = self._keys, self._tails
        tail = inf
        for j in range(self.assignment.priority_of(x) + 1, self.k):
            top = self.witness(x, j)
            if top:
                owner, leg = top
                rest = keys.get((owner, v))
                if rest is None:
                    rest = tails[owner].get(v)
                    if rest is None:
                        rest = self._tail(owner, v)
                if leg + rest < tail:
                    tail = leg + rest
        tails[x][v] = tail
        return tail
