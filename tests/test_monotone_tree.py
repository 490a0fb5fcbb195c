"""Monotone tree vs an independent naive fixpoint simulator, plus op contracts.

The reference simulator applies each batch's edge operations to a plain edge
map and then chaotically raises levels (never lowering them) until stable,
capping at the level bound.  The level-raising operator is monotone, so any
fair iteration order reaches the same fixpoint the tree's two-phase repair
reaches; agreement after every batch is therefore a real equivalence check.

The last tests drive the tree as a ball contract, one change at a time
through ``process_update``, on a ball scope's ``InducedSnapshot`` and on a
set watcher's ``ArtificialSourceView``, against a bounded Dijkstra.
"""

import os
import random
import subprocess
import sys
from math import inf
from pathlib import Path
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from decrsp.graph import (
    ArtificialSourceView,
    DynamicGraph,
    InducedSnapshot,
    UpdateEvent,
    dijkstra_bounded,
)
from decrsp.hopset import DuplicateEdgeError, KeyedMultigraph
from decrsp.monotone_tree import MonotoneEsTree

from checks import TreeWatcher
from test_graph_core import graph_from_edges, random_graph

import pytest


class NaiveMonotone:
    def __init__(self, root, cap, edges):
        self.root = root
        self.cap = cap
        self.edges = {key: (u, v, w) for key, u, v, w in edges}
        self.known = {root} | {x for u, v, _ in self.edges.values() for x in (u, v)}
        self.lev = {}
        self._exact_init()

    def _nodes(self):
        # Every node ever seen: an isolated node must still ratchet to inf.
        return self.known

    def _exact_init(self):
        import heapq

        adj = {}
        for u, v, w in self.edges.values():
            adj.setdefault(u, []).append((v, w))
            adj.setdefault(v, []).append((u, w))
        dist = {}
        heap = [(0, self.root)]
        while heap:
            d, x = heapq.heappop(heap)
            if x in dist:
                continue
            dist[x] = d
            for y, w in adj.get(x, ()):
                if y not in dist and d + w <= self.cap:
                    heapq.heappush(heap, (d + w, y))
        self.lev = dist

    def apply_batch(self, ops):
        for op in ops:
            kind = op[0]
            if kind == "insert":
                _, key, u, v, w = op
                assert key not in self.edges
                self.edges[key] = (u, v, w)
                self.known.update((u, v))
            elif kind == "delete":
                _, key = op
                del self.edges[key]
            elif kind == "increase":
                _, key, w = op
                u, v, old = self.edges[key]
                assert w > old
                self.edges[key] = (u, v, w)
        changed = True
        while changed:
            changed = False
            for x in sorted(self._nodes()):
                if x == self.root:
                    continue
                best = inf
                for u, v, w in self.edges.values():
                    if u == x:
                        best = min(best, self.lev.get(v, inf) + w)
                    elif v == x:
                        best = min(best, self.lev.get(u, inf) + w)
                if best > self.lev.get(x, inf):
                    if best <= self.cap:
                        self.lev[x] = best
                    else:
                        self.lev.pop(x, None)
                    changed = True

    def query(self, x):
        return self.lev.get(x, inf)


def tree_on(root, cap, edges):
    """A ``MonotoneEsTree`` over a new ``KeyedMultigraph`` of ``edges``."""
    return MonotoneEsTree(KeyedMultigraph(root, edges), root, cap)


def play_and_compare(root, cap, edges, batches):
    tree = tree_on(root, cap, edges)
    graph = tree.view
    watcher = TreeWatcher(tree)
    ref = NaiveMonotone(root, cap, edges)
    nodes = set(ref._nodes()) | {root}
    assert all(tree.query(x) == ref.query(x) for x in nodes)
    for ops in batches:
        pending = set()
        for op in ops:
            if op[0] == "insert":
                _, key, u, v, w = op
                graph.insert_edge(key, u, v, w)
                nodes.update((u, v))
            else:
                key = op[1]
                u = next(x for x in graph.adj if key in graph.adj[x])
                pending.update(change(tree, op[0] + "_edge", key, u, *op[2:]))
        changes = tree.end_batch(pending)
        watcher.check()
        ref.apply_batch(ops)
        for x in sorted(nodes):
            assert tree.query(x) == ref.query(x), (
                "node %r: tree %r vs ref %r after %r"
                % (x, tree.query(x), ref.query(x), ops)
            )
        for node, lvl in changes:
            assert tree.query(node) == lvl
        assert_fixpoint_holds(tree)
    return watcher


def assert_fixpoint_holds(tree):
    # The root sits at 0, and every other finite node hangs from a live edge
    # with level(other) + weight <= level(node): the invariant phase 1 of the
    # repair relies on.
    assert tree.query(tree.root) == 0
    for u in tree.view.adj:
        lu = tree.query(u)
        if u == tree.root or lu == inf:
            continue
        assert any(tree.query(v) + w <= lu for v, w in tree.view.neighbors(u)), u


def change(tree, op, key, u, *args):
    """Run ``tree.view.<op>(key, u, *args)`` on the graph under ``tree``;
    returns what the shortcut graph takes as pending for it: the end that a
    deleted or raised edge supported before the change."""
    graph = tree.view
    pending = () if op == "insert_edge" else tree.supported_ends(u, *graph.adj[u][key])
    getattr(graph, op)(key, u, *args)
    return pending


def one_batch(watcher, op, *args):
    """Run one edge operation (``change(tree, op, *args)``) on the graph
    under the watcher's tree as its own batch, then check the tree."""
    changes = watcher.tree.end_batch(change(watcher.tree, op, *args))
    watcher.check()
    return changes


def watched(*args):
    """A watcher of a new ``tree_on(*args)``."""
    return TreeWatcher(tree_on(*args))


PATH = [("e01", 0, 1, 2), ("e12", 1, 2, 3), ("e23", 2, 3, 4), ("e13", 1, 3, 9)]


def test_initialize_is_capped_exact():
    t = tree_on(0, 6, PATH)
    assert [t.query(x) for x in range(4)] == [0, 2, 5, inf]
    t2 = tree_on(0, 100, PATH)
    assert [t2.query(x) for x in range(4)] == [0, 2, 5, 9]


def test_insert_never_lowers_levels():
    w = watched(0, 100, PATH)
    assert w.tree.query(3) == 9
    # A much better route appears; the level deliberately stays put.
    changes = one_batch(w, "insert_edge", "short", 0, 3, 1)
    assert changes == []
    assert w.tree.query(3) == 9
    assert ("short", 3) in w.tree.stretched_pairs()


def test_insert_then_delete_roundtrip():
    w = watched(0, 100, PATH)
    before = {x: w.tree.query(x) for x in range(4)}
    one_batch(w, "insert_edge", "tmp", 0, 3, 1)
    one_batch(w, "delete_edge", "tmp", 0)
    assert {x: w.tree.query(x) for x in range(4)} == before


def test_duplicate_key_rejected():
    with pytest.raises(DuplicateEdgeError):
        one_batch(watched(0, 100, PATH), "insert_edge", "e01", 0, 1, 7)


def test_increase_propagates_and_caps():
    w = watched(0, 8, PATH)
    assert [w.tree.query(x) for x in range(4)] == [0, 2, 5, inf]
    changes = one_batch(w, "increase_edge", "e01", 0, 4)
    assert changes == [(1, 4), (2, 7)]
    changes = one_batch(w, "increase_edge", "e01", 0, 5)
    # Node 2 would land at 8 via e12; node 3 stays cut off.
    assert changes == [(1, 5), (2, 8)]
    changes = one_batch(w, "increase_edge", "e12", 1, 4)
    assert changes == [(2, inf)]


def test_delete_cuts_component():
    w = watched(0, 100, PATH)
    changes = one_batch(w, "delete_edge", "e01", 0)
    assert changes == [(1, inf), (2, inf), (3, inf)]
    assert w.tree.query(0) == 0


def test_stretched_edge_pins_level_until_cured():
    # Node 1 sits at level 6; an inserted edge offering 1 is stretched.  While
    # it stays stretched the level is pinned; once the stretch is cured by a
    # weight increase the edge behaves normally.
    edges = [("a", 0, 1, 6)]
    w = watched(0, 100, edges)
    one_batch(w, "insert_edge", "b", 0, 1, 1)
    assert w.tree.query(1) == 6
    one_batch(w, "increase_edge", "a", 0, 9)  # best route is now the inserted edge at 1 < 6
    assert w.tree.query(1) == 6  # monotone: nothing to raise
    one_batch(w, "increase_edge", "b", 0, 7)  # stretch cured (7 > 6): now min(9, 7) = 7
    assert w.tree.query(1) == 7


def test_stretched_route_keeps_affected_node_at_old_level():
    # Node 3 sits at 10 and hangs, after e03 goes, only from the stretched
    # edge s (route 1 + 2 = 3).  When node 1 rises to 5, node 3 loses its
    # last support and is affected, but the risen route 5 + 2 = 7 still fits
    # under its old level: the max(old, route) key keeps it at 10, and node 4
    # below it stays at 11.
    edges = [("e01", 0, 1, 1), ("e03", 0, 3, 10), ("e34", 3, 4, 1)]
    batches = [
        [("insert", "s", 1, 3, 2)],
        [("delete", "e03")],
        [("increase", "e01", 5)],
    ]
    w = play_and_compare(0, 100, edges, batches)
    assert [w.tree.query(x) for x in (1, 3, 4)] == [5, 10, 11]
    one_batch(w, "increase_edge", "e01", 0, 9)  # route 9 + 2 = 11 > 10
    assert [w.tree.query(x) for x in (1, 3, 4)] == [9, 11, 12]


def test_cut_off_component_cost_is_independent_of_cap():
    # A six-node cycle hangs off the root by one bridge.  Deleting the bridge
    # sends the whole cycle to inf in one step; a repair that raised it round
    # by round would do work proportional to the cap.
    cycle = [("c%d" % i, i, i % 6 + 1, 1 + i % 3) for i in range(1, 7)]
    outcomes = []
    for cap in (10**2, 10**6):
        w = watched(0, cap, [("bridge", 0, 1, 1)] + cycle)
        before = w.tree.work_counter + w.tree.edge_scans
        changes = one_batch(w, "delete_edge", "bridge", 0)
        outcomes.append((changes, w.tree.work_counter + w.tree.edge_scans - before))
    assert outcomes[0][0] == [(x, inf) for x in range(1, 7)]
    assert outcomes[0] == outcomes[1]


# -- the work a repair does: what phase 1 read seeds phase 2 --------------------


# Node 4 hangs from node 1 at level 2, with routes 4 and 5 through nodes 2 and 3.
FAN = [(0, 1, 1), (0, 2, 2), (0, 3, 2), (1, 4, 1), (2, 4, 2), (3, 4, 3)]


def test_one_node_rise_reads_each_neighbour_once():
    # Node 4 hangs from node 1 and rises from 2 to 4 when that edge goes up.
    # Phase 1 reads its three neighbours; phase 2 seeds it from those reads
    # and stops once it is settled, so nothing is read twice.
    graph = graph_from_edges(5, 8, FAN)
    tree = MonotoneEsTree(graph, 0, 100)
    assert tree.query(4) == 2
    record = graph.apply_update(UpdateEvent("increase", 1, 4, 3))
    assert tree.process_update(record) == [(4, 4)]
    assert tree.edge_scans == len(graph.neighbors(4)) == 3
    assert tree.work_counter == 4  # one push and one pop per phase


def test_change_on_an_edge_that_supported_neither_end_reads_nothing():
    # The edge 3-4 offers node 4 the route 5 and node 3 the route 5, both
    # above their levels 2: no end is pending, so no repair runs.
    graph = graph_from_edges(5, 8, FAN)
    tree = MonotoneEsTree(graph, 0, 100)
    assert tree.supported_ends(3, 4, 3) == () and tree.supported_ends(1, 4, 1) == (4,)
    tree._repair = lambda pending: pytest.fail("repair ran on %r" % (pending,))
    record = graph.apply_update(UpdateEvent("increase", 3, 4, 5))
    assert tree.process_update(record) == []
    assert tree.end_batch(()) == []
    assert (tree.work_counter, tree.edge_scans) == (0, 0)


def test_tied_routes_pin_the_repair_work():
    # Node 5 carries nodes 1 and 2, and both carry node 3 by tied routes.
    # Raising 0-5 moves all four; node 3 is reached from 1 and from 2 at the
    # same key, which queues it once.  Then deleting 1-3 leaves node 3 on
    # its tied route through 2, which keeps it unaffected.
    edges = [("a", 0, 5, 1), ("b", 5, 1, 1), ("c", 5, 2, 1), ("d", 1, 3, 2),
             ("e", 2, 3, 2), ("f", 0, 1, 10), ("g", 0, 2, 10)]
    tree = tree_on(0, 100, edges)
    assert [tree.query(x) for x in (5, 1, 2, 3)] == [1, 2, 2, 4]
    pending = change(tree, "increase_edge", "a", 0, 3)
    assert pending == (5,)
    assert tree.end_batch(pending) == [(1, 4), (2, 4), (3, 6), (5, 3)]
    # Phase 1: four pushes and four pops; phase 2: three seeds, three
    # relaxations and four pops.  Phase 1 reads 3 + 3 + 3 + 2 adjacency
    # entries, phase 2 those of 5, 1 and 2 but not of 3, settled last.
    assert (tree.work_counter, tree.edge_scans) == (18, 20)
    pending = change(tree, "delete_edge", "d", 1)
    assert pending == (3,)
    assert tree.end_batch(pending) == []
    assert (tree.work_counter, tree.edge_scans) == (20, 21)


# -- the tree's checks handed a broken tree, and the healthy boundary cases -----


def boundary(tree, stretched=(), ever_stretched=()):
    """A hand-built batch-boundary record for ``check_invariants``: the
    tree's current levels, no insertion since, and the given pairs
    stretched at the last boundary and at boundaries before it."""
    return SimpleNamespace(levels=dict(tree.level), stretched=set(stretched),
                           ever_stretched=set(ever_stretched), inserted=set(),
                           ever_inserted=True)


def test_a_route_exactly_at_the_cap_counts_as_stretched():
    # Node 1 lies above the cap 5; the inserted edge b offers it exactly 5,
    # which insertion does not act on.
    watcher = watched(0, 5, [("a", 0, 1, 9)])
    one_batch(watcher, "insert_edge", "b", 0, 1, 5)
    assert watcher.tree.query(1) == inf
    assert watcher.tree.stretched_pairs() == {("b", 1)}
    # Stretched at the last boundary, with its head above the cap before
    # and after: residual consistency does not ask a level for it.
    watcher.tree.check_invariants(boundary(watcher.tree, {("b", 1)}))


def test_a_forged_level_above_a_route_at_the_cap_is_a_new_stretch():
    # Node 3 sits at the cap 9, on e23's route 5 + 4; forged above the cap,
    # e23 (never inserted) turns stretched.
    watcher = watched(0, 9, PATH)
    del watcher.tree.level[3]
    with pytest.raises(AssertionError, match="'e23' became stretched without an insertion"):
        watcher.check()


def test_an_exactly_tight_support_holds_a_node():
    # Node 1 hangs from 0 by a tight 3; its route 1 + 3 through 2 is one over.
    tree = tree_on(0, 100, [("a", 0, 1, 3), ("b", 0, 2, 1), ("c", 2, 1, 3)])
    assert tree.query(1) == 3 and tree.stretched_pairs() == set()
    TreeWatcher(tree).check()


def test_a_forged_level_below_every_route_has_no_support():
    # Node 2 is forged to 3 before the boundary, below its routes 2 + 3 and 9 + 4.
    tree = tree_on(0, 100, PATH)
    tree.level[2] = 3
    with pytest.raises(AssertionError, match="node 2 has no supporting edge"):
        TreeWatcher(tree).check()


def test_a_forged_level_above_an_unstretched_route_is_inconsistent():
    # Node 3 is forged from 9 to 12, above e23's route 9 and e13's 11.  Only
    # a record whose earlier boundaries never saw those stretches reaches
    # residual consistency: with them in ``stretched`` the new-stretch check
    # passes, and the level did not move since.
    tree = tree_on(0, 100, PATH)
    tree.level[3] = 12
    record = boundary(tree, tree.stretched_pairs())
    assert record.stretched == {("e23", 3), ("e13", 3)}
    with pytest.raises(AssertionError, match=r"unstretched edge 'e\d+' leaves node 3 inconsistent"):
        tree.check_invariants(record)
    tree.check_invariants(boundary(tree, record.stretched, record.stretched))


BAD_EDGE_OPS = """
from checks import TreeWatcher
from decrsp.hopset import KeyedMultigraph
from decrsp.monotone_tree import MonotoneEsTree
graph = KeyedMultigraph(0, [("a", 0, 1, 1)])
for call in (lambda: graph.insert_edge("z", 1, 2, 0), lambda: graph.insert_edge("l", 1, 1, 3),
             lambda: graph.increase_edge("a", 0, 1)):
    try:
        call()
        print("accepted")
    except AssertionError:
        print("rejected")
watcher = TreeWatcher(MonotoneEsTree(KeyedMultigraph(0, [("b", 0, 1, 3)]), 0, 10))
watcher.tree.level[1] = 1  # below its true distance 3
try:
    watcher.check()
    print("accepted")
except AssertionError as exc:
    print(exc)
"""


def test_edge_guards_hold_under_optimize():
    # Phase 1 needs weights >= 1; under -O a bare assert would let a
    # weight-0 edge, a self-loop and a non-increase through, and the
    # tree's invariant check would pass a forged level.
    tests = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(tests.parent / "src"), str(tests), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-O", "-c", BAD_EDGE_OPS], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["rejected"] * 3 + ["level decreased at 1"]


def test_scripted_mixed_sequence_matches_simulator():
    edges = [
        ("r1", 0, 1, 1), ("r2", 1, 2, 2), ("r3", 2, 3, 1), ("r4", 3, 4, 2),
        ("x1", 0, 5, 4), ("x2", 5, 6, 1), ("x3", 6, 4, 3), ("c1", 2, 6, 2),
        ("p", 1, 7, 5), ("q", 7, 8, 1),
    ]
    batches = [
        [("delete", "r2")],
        [("insert", "s1", 0, 3, 9), ("increase", "x1", 6)],
        [("increase", "c1", 4), ("delete", "x2")],
        [("insert", "s2", 2, 8, 2), ("delete", "p")],
        [("delete", "r1")],
        [("increase", "s1", 12), ("insert", "s3", 0, 8, 3)],
        [("delete", "s1")],
        [("delete", "x1")],
    ]
    play_and_compare(0, 14, edges, batches)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 100_000))
def test_random_sequences_match_simulator(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 9)
    cap = rng.choice([6, 12, 25, 60])
    key_counter = [0]

    def fresh_key():
        key_counter[0] += 1
        return key_counter[0]

    edges = []
    for _ in range(rng.randint(2, 14)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.append((fresh_key(), min(u, v), max(u, v), rng.randint(1, 9)))
    live = {k: (u, v, w) for k, u, v, w in edges}
    batches = []
    for _ in range(rng.randint(1, 10)):
        ops = []
        for _ in range(rng.randint(1, 4)):
            roll = rng.random()
            if roll < 0.35 or not live:
                u = rng.randrange(n)
                v = rng.randrange(n)
                if u == v:
                    continue
                k = fresh_key()
                w = rng.randint(1, 9)
                ops.append(("insert", k, min(u, v), max(u, v), w))
                live[k] = (u, v, w)
            elif roll < 0.7:
                k = rng.choice(sorted(live))
                ops.append(("delete", k))
                del live[k]
            else:
                k = rng.choice(sorted(live))
                u, v, w = live[k]
                nw = w + rng.randint(1, 5)
                ops.append(("increase", k, nw))
                live[k] = (u, v, nw)
        batches.append(ops)
    play_and_compare(0, cap, edges, batches)


def test_reused_keys_match_simulator():
    # Deleted keys come back with new endpoints and weights, so stale heap
    # entries of one key can sit above or below its live candidate.
    for seed in range(30):
        rng = random.Random(7000 + seed)
        n = rng.randint(4, 10)
        live = {}
        for key in range(rng.randint(n, 3 * n)):
            u, v = rng.sample(range(n), 2)
            live[key] = (u, v, rng.randint(1, 6))
        edges = [(k, u, v, w) for k, (u, v, w) in live.items()]
        retired = []
        batches = []
        for _ in range(12):
            ops = []
            for _ in range(rng.randint(1, 4)):
                roll = rng.random()
                if roll < 0.3 and retired:
                    key = retired.pop(rng.randrange(len(retired)))
                    u, v = rng.sample(range(n), 2)
                    live[key] = (u, v, rng.randint(1, 6))
                    ops.append(("insert", key) + live[key])
                elif roll < 0.6 and live:
                    key = rng.choice(sorted(live))
                    u, v, w = live[key]
                    live[key] = (u, v, w + rng.randint(1, 4))
                    ops.append(("increase", key, live[key][2]))
                elif live:
                    key = rng.choice(sorted(live))
                    del live[key]
                    retired.append(key)
                    ops.append(("delete", key))
            batches.append(ops)
        play_and_compare(0, rng.choice([8, 15, 30]), edges, batches)


# -- the ball contract: one change at a time over a read-protocol view -----------


def contract_trees(graph, rng):
    """Trees built as the ball factories build them: one on a ball scope's
    ``InducedSnapshot``, seeded with the scope search as its levels, and one
    behind a set watcher's ``ArtificialSourceView``, whose virtual root edges
    weigh 0."""
    owner = rng.randrange(graph.n)
    scope = dijkstra_bounded(graph, owner, rng.choice([6, 12, 24]))
    art = ArtificialSourceView(graph, rng.sample(range(graph.n), 3))
    return [MonotoneEsTree(InducedSnapshot(graph, scope), owner, rng.choice([8, 16, inf]), scope),
            MonotoneEsTree(art, art.source_id, rng.choice([8, 16, inf]))]


def supports(levels, x, y, weight):
    """Whether the edge (x, y) at ``weight`` supported a finite x."""
    return levels.get(x, inf) != inf and levels.get(y, inf) + weight <= levels[x]


@pytest.mark.parametrize("seed", range(6))
def test_contract_tree_on_a_view_is_exact_and_reports_what_moved(seed):
    # A drain of the graph; each tree sees the changes its ball would feed
    # it, after its view took them: a scope only those on its own edges.
    # After each one its levels are the bounded Dijkstra levels of its view,
    # its changes are exactly the nodes that moved, sorted, with inf for a
    # node cut off, and a change on an edge that supported neither endpoint
    # costs no heap operation and no edge scan.
    rng = random.Random(seed)
    graph = random_graph(20, 45, 6, seed=200 + seed)
    trees = contract_trees(graph, rng)
    quiet = cut = 0
    while graph.edge_count:
        u, v, w = rng.choice(list(graph.edges()))
        if w < 6 and rng.random() < 0.3:
            record = graph.apply_update(UpdateEvent("increase", u, v, rng.randint(w + 1, 6)))
        else:
            record = graph.apply_update(UpdateEvent("delete", u, v))
        for tree in trees:
            view = tree.view
            if isinstance(view, InducedSnapshot):
                if not {u, v} <= view.node_set:
                    continue
                view.apply_record(record)
            old, spent = dict(tree.level), (tree.work_counter, tree.edge_scans)
            changes = tree.process_update(record)
            assert tree.level == dijkstra_bounded(view, tree.root, tree.cap)
            assert changes == sorted((x, tree.query(x)) for x in old.keys() | tree.level.keys()
                                     if tree.query(x) != old.get(x, inf))
            cut += any(level == inf for _, level in changes)
            if not (supports(old, u, v, w) or supports(old, v, u, w)):
                quiet += 1
                assert changes == [] and (tree.work_counter, tree.edge_scans) == spent
    assert quiet > 0 and cut > 0


def test_cut_off_region_in_a_ball_scope_costs_the_same_under_any_cap():
    # The six-node cycle of the shortcut-tree test above hangs off the ball's
    # owner by one bridge, all inside its scope.  Deleting the bridge sends
    # the cycle to inf in one step; a repair that raised it round by round,
    # up to a cap far below the longest finite distance the weight bound
    # allows, would do work proportional to the cap.
    outcomes = []
    for cap in (10**2, 10**6):
        graph = DynamicGraph(7, max_weight=10**7)
        graph.add_edge(0, 1, 1)
        for i in range(1, 7):
            graph.add_edge(i, i % 6 + 1, 1 + i % 3)
        scope = dijkstra_bounded(graph, 0, inf)
        snapshot = InducedSnapshot(graph, scope)
        tree = MonotoneEsTree(snapshot, 0, cap, scope)
        record = graph.apply_update(UpdateEvent("delete", 0, 1))
        snapshot.apply_record(record)
        changes = tree.process_update(record)
        outcomes.append((changes, tree.work_counter, tree.edge_scans))
    assert outcomes[0][0] == [(x, inf) for x in range(1, 7)]
    assert outcomes[0] == outcomes[1]
