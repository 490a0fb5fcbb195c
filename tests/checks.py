"""The structure checks that tests run after every update.

The library keeps one code path: no structure checks itself or records
history for a check.  The checks are its public ``check_*`` methods, and
this module runs them:

* ``TreeWatcher`` keeps the batch-boundary record that
  ``MonotoneEsTree.check_invariants`` reads;
* ``StructureChecks`` runs every check of a ``FullRangeSssp``, a
  ``LayerAssembly`` or a ``ShortcutGraph``, nested shortcut trees and ball
  systems included;
* ``check_apsp`` runs the three ``ApspState`` checks and ``check_routing``
  on its ball system;
* ``check_routing`` checks a ``BallSystem``'s owners index, snapshots and
  tables, which no public method exposes;
* ``hopset_audit`` checks the hop/weight trade-off of a freshly built ball
  system and shortcut graph, with ``hop_table`` as its hop-limited DP.
"""

from fractions import Fraction
from math import ceil, inf

from decrsp.balls import BallSystem
from decrsp.hopset import ShortcutGraph, derive_params
from decrsp.layered import FullRangeSssp
from decrsp.monotone_tree import MonotoneEsTree
from decrsp.oracle import cross_checked_distances
from decrsp.sampling import sample_priorities


class TreeWatcher:
    """The batch-boundary record of one ``MonotoneEsTree``.

    At each boundary it snapshots the tree's levels, its stretched pairs
    and each edge key's endpoints and weight, and it keeps the pairs ever
    stretched at a boundary while their edge stayed.  ``check`` then
    derives the keys inserted in the batch: a key new at the boundary, or
    one that came back on other endpoints or with a lower weight.  A key
    deleted and inserted again in one batch with its old endpoints and a
    higher weight reads as an increase; an increase never makes an edge
    stretched, so the check holds for it as for an insertion.  The pairs of
    a key that went, or came back, leave the stretched sets, as the key now
    names a new edge.
    """

    def __init__(self, tree):
        self.tree = tree
        self.ever_inserted = False
        self.ever_stretched = set()
        self._mark()

    def _edges(self):
        return {key: (frozenset((u, v)), w)
                for u, row in self.tree.view.adj.items() for key, (v, w) in row.items()}

    def _mark(self):
        self.levels = dict(self.tree.level)
        self.stretched = self.tree.stretched_pairs()
        self.ever_stretched |= self.stretched
        self.edges = self._edges()
        self.inserted = set()

    def check(self):
        """Check the batch since the last boundary, then mark a new one."""
        before, now = self.edges, self._edges()
        self.inserted = {key for key, (ends, w) in now.items()
                         if key not in before or ends != before[key][0] or w < before[key][1]}
        gone = self.inserted | (before.keys() - now.keys())
        self.stretched = {pair for pair in self.stretched if pair[0] not in gone}
        self.ever_stretched = {pair for pair in self.ever_stretched if pair[0] not in gone}
        self.ever_inserted |= bool(self.inserted)
        self.tree.check_invariants(self)
        self._mark()


class StructureChecks:
    """Every check of ``structure`` (a ``FullRangeSssp``, a ``LayerAssembly``
    or a ``ShortcutGraph``), run by ``check`` after each update: for each
    shortcut graph in it, its tree's invariants, then ``check_sandwich`` and
    ``check_shortcut_mirror``; then ``check_routing`` on each
    ``LayerAssembly``'s ball system; last, for a ``FullRangeSssp``,
    ``check_answers``.  A band's shortcut tree is watched from the first
    boundary at which the band is in ``stacks``: a band built inside an
    update has processed no record of it, so that is where its history
    starts.  ``watchers`` maps each watched shortcut graph to its
    ``TreeWatcher``."""

    def __init__(self, structure):
        self.structure = structure
        self.watchers = {}
        self.watch_new()

    def _bands(self):
        s = self.structure
        if isinstance(s, ShortcutGraph):
            return []
        bands = s.stacks if isinstance(s, FullRangeSssp) else [s]
        return [band for band in bands if band.mode == "layered"]

    def _graphs(self):
        if isinstance(self.structure, ShortcutGraph):
            return [self.structure]
        return [band.sg for band in self._bands()]

    def watch_new(self):
        """Watch every shortcut graph not watched yet, and drop retired ones."""
        self.watchers = {sg: self.watchers.get(sg) or TreeWatcher(sg.tree)
                         for sg in self._graphs()}

    def check(self):
        for sg in self._graphs():
            if sg in self.watchers:
                self.watchers[sg].check()
                sg.check_sandwich()
                sg.check_shortcut_mirror()
        for band in self._bands():
            check_routing(band.balls)
        if isinstance(self.structure, FullRangeSssp):
            self.structure.check_answers()
        self.watch_new()


def check_apsp(state):
    """The three ``ApspState`` checks: witness heaps and reader sets, cached
    tails, answer rows; then ``check_routing`` on its ball system."""
    state.check_heaps_against_journal()
    state.check_tails_against_recursion()
    state.check_answer_rows()
    check_routing(state.balls)


def check_routing(balls):
    """The owners index of ``balls`` inverts its scopes of two or more nodes,
    and names no node that no such scope holds.  Each of those scopes has a
    snapshot that is the current view induced on it, rows in the view's
    neighbour order, and an inner instance; a lone ball has neither.  Each
    ball's table holds only nodes of its scope.  Returns the number of
    snapshots checked."""
    view = balls.view
    inverse = {}
    live = 0
    for u in view.node_ids():
        scope, snapshot = balls.scope(u), balls._snapshot[u]
        assert balls.members(u).keys() <= scope, u
        if snapshot is None:
            assert scope == {u} and balls._inner[u] is None, u
            continue
        live += 1
        assert len(scope) > 1 and balls._inner[u] is not None, u
        assert snapshot.max_weight == view.max_weight
        for x in sorted(scope):
            inverse.setdefault(x, set()).add(u)
            want = [(y, w) for y, w in view.neighbors(x) if y in scope]
            assert list(snapshot.neighbors(x)) == want, (u, x)
    assert balls._owners == inverse
    return live


def hop_table(edges, source, rounds):
    """Weights of the cheapest paths of at most h edges from ``source`` over
    the undirected ``(u, v, w)`` edges, one ``{node: weight}`` per h = 0..rounds.
    The table stops at the first round that changes nothing: later rounds
    equal its last row."""
    table = [{source: 0}]
    for _ in range(rounds):
        cur, new = table[-1], dict(table[-1])
        for u, v, w in edges:
            for x, y in ((u, v), (v, u)):
                if x in cur and cur[x] + w < new.get(y, inf):
                    new[y] = cur[x] + w
        if new == cur:
            break
        table.append(new)
    return table


def hopset_audit(graph, p, delta, eps, seed, *, c=2.0):
    """Build a ball system and a shortcut graph rooted at 0 over ``graph``,
    wired as ``LayerAssembly`` wires them, check them, and check that every
    connected pair (u, v) at distance d reaches weight at most (1 + eps) d +
    2 (2 + 2/eps)^(p-2) delta within p ceil(d / delta) hops of the
    multigraph's keys at raw weights, and at most (1 + 2 eps) d once d is at
    least that additive term over eps.  Returns a report dict."""
    eps, nodes = Fraction(eps), list(graph.node_ids())
    n, depth = len(nodes), len(nodes) * graph.max_weight
    balls = BallSystem(graph, sample_priorities(graph, p, c, seed), MonotoneEsTree,
                       alpha=1, depth=depth, bucket_eps=1)
    sg = ShortcutGraph(graph, balls, derive_params(1, 0, 2, 1, eps, p, delta, depth, n), 0)
    sg.check_sandwich()
    sg.check_shortcut_mirror()
    base = {("G", u, v): w for u, v, w in graph.edges()}
    keys = {key for row in sg.multigraph.adj.values() for key in row}
    edges = [(u, v, base[tag, u, v] if tag == "G" else balls.estimate(u, v))
             for tag, u, v in keys]
    additive = 2 * (2 + 2 / eps) ** (p - 2) * delta
    budgets, needed = [], []  # per connected pair; per covered pair
    for u in nodes:
        dist = {v: d for v, d in cross_checked_distances(graph, u).items() if v != u}
        hops = {v: p * ceil(Fraction(d) / delta) for v, d in dist.items() if d != inf}
        table = hop_table(edges, u, max(hops.values(), default=0))
        for v, budget in hops.items():
            d, curve = dist[v], [row.get(v, inf) for row in table]
            at_budget = curve[min(budget, len(curve) - 1)]
            assert at_budget <= (1 + eps) * d + additive, (u, v, at_budget, budget)
            budgets.append(budget)
            if d >= additive / eps:
                assert at_budget <= (1 + 2 * eps) * d, (u, v, at_budget, budget)
                needed.append(next(h for h, w in enumerate(curve) if w <= (1 + 2 * eps) * d))
    return dict(n=n, p=p, delta=delta, eps=str(eps),
                shortcut_edges=sum(key[0] == "F" for key in keys),
                max_ball_size=max(len(balls.members(u)) for u in nodes),
                finite_pairs=len(budgets), covered_pairs=len(needed),
                additive_allowance=str(additive), max_hop_budget=max(budgets, default=0),
                worst_needed_hops=max(needed, default=0))
