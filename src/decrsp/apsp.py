"""All-pairs approximate distances under deletions and weight increases.

A priority-sampled ball system, driven by the full-range single-source
contract, stores a distance estimate for every (owner, member) pair whose
ball relation holds.  On top of that, every node ``v`` keeps one min-heap
per priority class ``j`` holding the owners of priority ``j`` whose ball
contains ``v``, keyed by the journaled estimate; the heap minimum is the
cheapest priority-j witness reachable from ``v``.

A pair query walks the priority ladder: the tail of a node ``x`` toward the
target ``v`` is its journaled ball estimate when ``v`` sits in ``x``'s ball,
and otherwise the best witness-leg-plus-tail sum over the cheapest witness
of each higher priority class.  Priorities strictly increase along the
recursion, so one query computes at most k^k fresh tails.  The state keeps a
``(x, v) -> tail`` table that queries share, and a query whose tails are all
cached computes none.  A tail reads the journal entry ``(x, v)`` and, when
there is none, the witness tops of ``x`` above its priority and their tails
toward ``v``; all of these change only when the ball journal is ingested, so
an update drops exactly the tails whose journal entry it rewrote, the tails
of every node whose top above its priority moved, and, through a reverse
index, every cached tail that read a dropped one.  The returned estimate
never underestimates and stays within a ((2 + eps)^k - 1) stretch factor.
Every internal component runs at eps/7, which absorbs the error compounding
of the witness chain.

Each answered pair sits in exactly one of two per-node rows.  While the tail
``(u, v)`` is cached, ``_served[u][v]`` holds the answer, and a query returns
it with one row read.  When the tail is dropped, the answer moves to
``_held[u][v]``, where it is the floor that the pair's next answer is
clamped to: a cheaper witness chain can appear as balls change, and the
answers handed out must never decrease.

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
from .layered import POISONED, FullRangeSssp
from .sampling import sample_priorities


class ApspState:
    """Ball system plus per-(node, priority) witness heaps."""

    def __init__(self, graph, k, eps, seed, *, c=2.0, debug=False):
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
        self.debug = debug
        self.assignment = sample_priorities(graph, k, c, seed)
        counter = itertools.count(seed * 1_000_003 + 1)
        eps_run = self.eps_run

        # The factory lives in ``self.balls``; capturing ``self`` would make
        # every state a reference cycle that only the cyclic GC reclaims.
        def factory(view, root, depth):
            return FullRangeSssp(view, root, eps_run, seed=next(counter))

        horizon = graph.node_count() * graph.max_weight
        self.balls = BallSystem(
            graph,
            self.assignment,
            factory,
            alpha=1 + self.eps_run,
            beta=0,
            depth=horizon,
            bucket_eps=self.eps_run,
        )
        self._keys = {}  # (owner, member) -> journaled estimate
        # u -> {v: answer}: served while the tail (u, v) is cached, held as
        # the clamp floor of the pair's next answer once it is dropped.
        self._served = {v: {} for v in graph.node_ids()}
        self._held = {v: {} for v in graph.node_ids()}
        # x -> {v: tail from x toward v}, one row per node so that a node's
        # whole row can be dropped at once.
        self._tails = {v: {} for v in graph.node_ids()}
        # x -> the witness tops that x's cached tails without a journal entry
        # read: every such tail reads all of them, and they cannot move
        # without dropping x's row, so one tuple per row names them.
        # owner -> {x} is its inverse: x's tail toward v read (owner, v).
        self._reads = {v: () for v in graph.node_ids()}
        self._readers = {v: set() for v in graph.node_ids()}
        self._tails_computed = 0
        self._tails_dropped = 0
        self._poisoned = False
        self._heaps = {v: [[] for _ in range(k)] for v in graph.node_ids()}
        self.last_query_expansions = 0
        for owner, table in self.balls.initial_membership().items():
            j = self.assignment.priority_of(owner)
            for member, est in table.items():
                self._keys[(owner, member)] = est
                heapq.heappush(self._heaps[member][j], (est, owner))

    def stats(self):
        """Journal, tail-table and served-row sizes, plus three counters that
        never decrease: the balls' scope rebuilds and the tails computed and
        dropped.  A poisoned state reads 0 for every size and keeps the
        counters it had at the fault."""
        balls = self.balls
        return {
            "answers_served": sum(map(len, self._served.values())),
            "ball_rebuilds": (self._ball_rebuilds if balls is None
                              else sum(balls.rebuild_counts.values())),
            "heap_pairs": len(self._keys),
            "tails_cached": sum(map(len, self._tails.values())),
            "tails_computed": self._tails_computed,
            "tails_dropped": self._tails_dropped,
        }

    # -- witness heaps --------------------------------------------------------

    def _clean(self, v, j):
        heap = self._heaps[v][j]
        while heap and self._keys.get((heap[0][1], v)) != heap[0][0]:
            heapq.heappop(heap)

    def witness(self, v, j):
        """Cheapest priority-j owner whose ball contains v: (owner, estimate).

        Returns None when no such owner exists.  Ties in the estimate are
        broken by the smaller owner id.  Heap tops are kept fresh at update
        time, so this is read-only.
        """
        heap = self._heaps[v][j]
        if not heap:
            return None
        est, owner = heap[0]
        if self._keys.get((owner, v)) != est:
            raise AssertionError("stale witness heap top")
        return owner, est

    def _ingest(self, events):
        """Apply a journal batch to the keys and heaps, then drop every cached
        tail that read a journal entry or a witness top the batch changed."""
        priority_of = self.assignment.priority_of
        tops = {}  # (member, j) -> heap top before this batch
        stale = []  # (x, v) of tails whose journal entry changed
        for event in events:
            owner, member = event.owner, event.member
            j = priority_of(owner)
            heap = self._heaps[member][j]
            if (member, j) not in tops:
                tops[(member, j)] = heap[0] if heap else None
            if event.kind == LEAVE:
                self._keys.pop((owner, member), None)
            else:  # JOIN and EST both (re)key the pair
                self._keys[(owner, member)] = event.estimate
                heapq.heappush(heap, (event.estimate, owner))
            stale.append((owner, member))
        rows = set()  # nodes with a witness top above their priority moved
        for (v, j), top in tops.items():
            self._clean(v, j)
            heap = self._heaps[v][j]
            if j > priority_of(v) and (heap[0] if heap else None) != top:
                rows.add(v)
        self._drop_tails(stale, rows)
        if self.debug:
            self.check_heaps_against_journal()
            self.check_tails_against_recursion()
            self.check_answer_rows()

    def _drop_tails(self, stale, rows):
        """Drop the tails named in ``stale``, the whole row of every node in
        ``rows`` and, transitively, the readers of every dropped tail.  The
        served answer of every dropped tail becomes its pair's held floor.

        The readers of a tail (x, v) are the cached tails (y, v) without a
        journal entry whose node y has x among its witness tops.  A dropped
        row leaves the reader sets of its tops, so a row recomputed through
        other witnesses is not dropped again for its old ones.
        """
        tails, keys, readers, reads = self._tails, self._keys, self._readers, self._reads
        served, held = self._served, self._held
        dropped = 0
        for x in rows:
            dropped += len(tails[x])
            tails[x] = {}
            if served[x]:
                held[x].update(served[x])
                served[x] = {}
            for owner in reads[x]:
                readers[owner].discard(x)
            reads[x] = ()
            stale += [(y, v) for y in readers[x] for v in tails[y] if (y, v) not in keys]
        while stale:
            x, v = stale.pop()
            if tails[x].pop(v, None) is not None:
                dropped += 1
                answer = served[x].pop(v, None)
                if answer is not None:
                    held[x][v] = answer
                if readers[x]:  # only nodes that are some row's witness top have readers
                    stale += [(y, v) for y in readers[x] if v in tails[y] and (y, v) not in keys]
        self._tails_dropped += dropped

    def check_heaps_against_journal(self):
        """Heap minima must equal brute-force minima over the journaled keys."""
        best = {}
        for (owner, member), est in self._keys.items():
            j = self.assignment.priority_of(owner)
            cur = best.get((member, j))
            if cur is None or (est, owner) < cur:
                best[(member, j)] = (est, owner)
        for v in self.graph.node_ids():
            for j in range(self.k):
                top = self.witness(v, j)
                want = best.get((v, j))
                if top != (None if want is None else (want[1], want[0])):
                    raise AssertionError((v, j, top, want))

    def check_tails_against_recursion(self):
        """Every cached tail must equal the witness-chain recursion from scratch,
        and the reader index must name exactly the witness tops that the
        cached tails read."""

        def fresh(x, v):
            tail = self._keys.get((x, v), inf)
            if tail == inf:
                for j in range(self.assignment.priority_of(x) + 1, self.k):
                    top = self.witness(x, j)
                    if top is not None:
                        tail = min(tail, top[1] + fresh(top[0], v))
            return tail

        readers = {x: set() for x in self._tails}
        for x, row in self._tails.items():
            for v, tail in row.items():
                want = fresh(x, v)
                if tail != want:
                    raise AssertionError("cached tail %r is %s, recursion gives %s"
                                         % ((x, v), tail, want))
            tops = [self.witness(x, j) for j in range(self.assignment.priority_of(x) + 1, self.k)]
            tops = tuple(top[0] for top in tops if top is not None)
            # A row may keep its tops registered after its last reading tail
            # left one by one; it must name them while such a tail is cached.
            reading = tops and any((x, v) not in self._keys for v in row)
            if self._reads[x] not in ((), tops) or (reading and not self._reads[x]):
                raise AssertionError("row %r names witness tops %r, its tails read %r"
                                     % (x, self._reads[x], tops))
            for owner in self._reads[x]:
                readers[owner].add(x)
        if readers != self._readers:
            raise AssertionError("reader sets are not the inverse of the rows' witness tops")

    def check_answer_rows(self):
        """Every served answer must have its tail cached and be at least that
        tail, and no pair may be both served and held."""
        for u, row in self._served.items():
            tails, held = self._tails[u], self._held[u]
            for v, answer in row.items():
                tail = tails.get(v)
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
        self._reads, self._readers = {}, {}

    # -- queries ----------------------------------------------------------------

    def query(self, u, v):
        """Approximate distance between u and v; inf when no witness chain.

        ``last_query_expansions`` counts the tails this call computed: at
        most k^k, and 0 when every tail it needed was already in the table.
        Tails stay cached across updates; each update drops only those whose
        journal entry, witness tops or recursed-into tails it changed.
        A cheaper witness chain can appear as balls and witnesses change, so
        the answer is clamped to the largest one returned before for the
        pair.  The clamped value stays sound and within the stretch bound
        because distances only grow.  While the pair's tail stays cached its
        answer cannot change, so it is served from the pair's row as is.
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
        """Answer a pair that is not served: its tail, computed unless the
        table has it, clamped to the pair's held floor; then serve it."""
        if self._poisoned:
            raise UpdateError(POISONED)
        for x in (u, v):
            if not self.graph.has_node(x):
                raise ParamConfigError("node %r is not in the graph" % (x,))
        tail = self._tails[u].get(v)
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
        """Best estimate from x to v along x's ball or a witness chain; the
        caller has found no table entry for (x, v)."""
        self._tails_computed += 1
        tail = self._keys.get((x, v), inf)
        if tail == inf:
            owners = []
            for j in range(self.assignment.priority_of(x) + 1, self.k):
                top = self.witness(x, j)
                if top is not None:
                    owner, leg = top
                    rest = self._tails[owner].get(v)
                    if rest is None:
                        rest = self._tail(owner, v)
                    owners.append(owner)
                    if leg + rest < tail:
                        tail = leg + rest
            if owners and not self._reads[x]:
                self._reads[x] = tuple(owners)
                for owner in owners:
                    self._readers[owner].add(x)
        self._tails[x][v] = tail
        return tail
