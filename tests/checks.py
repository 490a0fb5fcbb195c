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
  tables, which no public method exposes.
"""

from decrsp.hopset import ShortcutGraph
from decrsp.layered import FullRangeSssp


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
