"""All-pairs approximate distances under deletions and weight increases.

A priority-sampled ball system, driven by the full-range single-source
contract, stores a distance estimate for every (owner, member) pair whose
ball relation holds.  On top of that, every node ``v`` keeps one min-heap
per priority class ``j`` holding the owners of priority ``j`` whose ball
contains ``v``, keyed by the journaled estimate; the heap minimum is the
cheapest priority-j witness reachable from ``v``.

A pair query walks the priority ladder: the tail of a node ``x`` toward the
target ``v`` is its stored ball estimate when ``v`` sits in ``x``'s ball,
and otherwise the best witness-leg-plus-tail sum over the cheapest witness
of each higher priority class.  Priorities strictly increase along the
recursion, so one query computes at most k^k fresh tails.  Balls and
witness heaps change only in ``process_update``, so a tail is the same for
every query between two updates: the state keeps a ``(x, v) -> tail`` table
that an update clears and queries share, and a query whose tails are all
cached computes none.  The returned estimate never underestimates and stays
within a ((2 + eps)^k - 1) stretch factor.  Every internal component runs at
eps/7, which absorbs the error compounding of the witness chain.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from math import inf

from .balls import LEAVE, BallSystem
from .graph import ParamConfigError
from .layered import FullRangeSssp
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
        self._answers = {}  # (u, v) -> largest answer returned so far
        self._tails = {}  # (x, v) -> tail from x toward v; cleared by each update
        self._heaps = {v: [[] for _ in range(k)] for v in graph.node_ids()}
        self.last_query_expansions = 0
        for owner, table in self.balls.initial_membership().items():
            j = self.assignment.priority_of(owner)
            for member, est in table.items():
                self._keys[(owner, member)] = est
                heapq.heappush(self._heaps[member][j], (est, owner))

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
        touched = set()
        for event in events:
            owner, member = event.owner, event.member
            j = self.assignment.priority_of(owner)
            if event.kind == LEAVE:
                self._keys.pop((owner, member), None)
            else:  # JOIN and EST both (re)key the pair
                self._keys[(owner, member)] = event.estimate
                heapq.heappush(self._heaps[member][j], (event.estimate, owner))
            touched.add((member, j))
        for v, j in touched:
            self._clean(v, j)
        if self.debug:
            self.check_heaps_against_journal()

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

    # -- updates ----------------------------------------------------------------

    def process_update(self, event):
        """Advance the graph, the balls, and the witness heaps by one change."""
        # Cleared before anything moves, so an update that raises leaves no
        # tail computed against the old balls.
        self._tails.clear()
        record = self.graph.apply_update(event)
        changes = self.balls.process_update(record)
        self._ingest(changes.events)

    # -- queries ----------------------------------------------------------------

    def query(self, u, v):
        """Approximate distance between u and v; inf when no witness chain.

        ``last_query_expansions`` counts the tails this call computed: at
        most k^k, and 0 when every tail it needed was already in the table.
        A cheaper witness chain can appear as balls and witnesses change, so
        the answer is clamped to the largest one returned before for the
        pair.  The clamped value stays sound and within the stretch bound
        because distances only grow.
        """
        if type(u) is not int or type(v) is not int:  # bool too: True == 1
            raise ParamConfigError("node ids must be ints, got %r and %r" % (u, v))
        key = (u, v)
        prev = self._answers.get(key)
        if prev is None:  # a pair with an answer had its nodes checked then
            for x in key:
                if not self.graph.has_node(x):
                    raise ParamConfigError("node %r is not in the graph" % (x,))
            prev = 0
        self.last_query_expansions = 0
        tail = self._tails.get(key)
        if tail is None:
            tail = self._tail(u, v)
        answer = prev if prev > tail else tail
        self._answers[key] = answer
        return answer

    def _tail(self, x, v):
        """Best estimate from x to v along x's ball or a witness chain; the
        caller has found no table entry for (x, v)."""
        self.last_query_expansions += 1
        tail = self.balls.estimate(x, v)
        if tail == inf:
            for j in range(self.assignment.priority_of(x) + 1, self.k):
                top = self.witness(x, j)
                if top is not None:
                    owner, leg = top
                    rest = self._tails.get((owner, v))
                    if rest is None:
                        rest = self._tail(owner, v)
                    if leg + rest < tail:
                        tail = leg + rest
        self._tails[(x, v)] = tail
        return tail
