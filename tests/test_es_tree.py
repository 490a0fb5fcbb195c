"""Exact depth-bounded tree: exactness per update, change lists, work bound."""

import random
from math import inf

from hypothesis import given, settings
from hypothesis import strategies as st

from decrsp.es_tree import EsTree
from decrsp.graph import ArtificialSourceView, DynamicGraph, InducedSnapshot, UpdateEvent
from decrsp.oracle import dijkstra

from test_graph_core import graph_from_edges, random_graph


def levels_against_oracle(tree, view, root, depth):
    want = {v: d for v, d in dijkstra(view, root).items() if d <= depth}
    got = {v: tree.query(v) for v in view.node_ids() if tree.query(v) != inf}
    assert got == want


def drain(g, tree, events, depth, check_every=1):
    for idx, ev in enumerate(events):
        rec = g.apply_update(ev)
        changes = tree.process_update(rec)
        for node, lvl in changes:
            assert tree.query(node) == lvl
        if idx % check_every == 0:
            levels_against_oracle(tree, tree.view, tree.root, depth)
    levels_against_oracle(tree, tree.view, tree.root, depth)


def test_build_matches_bounded_dijkstra():
    g = graph_from_edges(6, 9, [(0, 1, 2), (1, 2, 2), (2, 3, 2), (3, 4, 2), (0, 5, 7)])
    t = EsTree(g, 0, 4)
    assert {v: t.query(v) for v in range(6)} == {0: 0, 1: 2, 2: 4, 3: inf, 4: inf, 5: inf}
    assert t.parent[2] == 1 and t.parent[0] is None


def test_nontree_edge_delete_is_noop():
    # Both endpoints keep their parents; the change list must be empty.
    g = graph_from_edges(4, 9, [(0, 1, 1), (0, 2, 1), (1, 2, 5), (2, 3, 1)])
    t = EsTree(g, 0, inf)
    rec = g.apply_update(UpdateEvent("delete", 1, 2))
    assert t.process_update(rec) == []
    levels_against_oracle(t, g, 0, inf)


def test_tree_edge_delete_reroutes():
    g = graph_from_edges(4, 9, [(0, 1, 1), (1, 2, 1), (0, 2, 5), (2, 3, 1)])
    t = EsTree(g, 0, inf)
    assert t.query(2) == 2 and t.query(3) == 3
    rec = g.apply_update(UpdateEvent("delete", 1, 2))
    changes = t.process_update(rec)
    assert changes == [(2, 5), (3, 6)]
    assert t.parent[2] == 0


def test_increase_with_tying_alternative_keeps_level():
    g = graph_from_edges(3, 9, [(0, 1, 2), (0, 2, 4), (1, 2, 2)])
    t = EsTree(g, 0, inf)
    assert t.query(2) == 4 and t.parent[2] == 0  # smallest-id tie-break
    rec = g.apply_update(UpdateEvent("increase", 0, 2, 5))
    assert t.process_update(rec) == []  # the route through node 1 still gives 4
    assert t.query(2) == 4 and t.parent[2] == 1


def test_depth_cutoff_emits_infinity():
    g = graph_from_edges(3, 9, [(0, 1, 3), (1, 2, 3)])
    t = EsTree(g, 0, 6)
    rec = g.apply_update(UpdateEvent("increase", 0, 1, 4))
    changes = t.process_update(rec)
    assert changes == [(1, 4), (2, inf)]
    assert t.query(2) == inf and 2 not in t.parent


def test_update_on_deep_region_is_cheap():
    # A change entirely beyond the depth bound never touches finite levels.
    g = graph_from_edges(5, 9, [(0, 1, 1), (1, 2, 9), (2, 3, 1), (3, 4, 1)])
    t = EsTree(g, 0, 5)
    before = dict(t.level)
    rec = g.apply_update(UpdateEvent("delete", 3, 4))
    assert t.process_update(rec) == []
    assert t.level == before


def test_monotone_levels_and_exactness_full_deletion():
    for seed in range(6):
        rng = random.Random(1000 + seed)
        g = random_graph(18, 50, 9, seed=seed)
        depth = rng.choice([8, 15, inf])
        t = EsTree(g, 0, depth)
        prev = {v: t.query(v) for v in range(g.n)}
        while g.edge_count:
            u, v, w = rng.choice(list(g.edges()))
            if w < 9 and rng.random() < 0.3:
                ev = UpdateEvent("increase", u, v, rng.randint(w + 1, 9))
            else:
                ev = UpdateEvent("delete", u, v)
            t.process_update(g.apply_update(ev))
            cur = {x: t.query(x) for x in range(g.n)}
            assert all(cur[x] >= prev[x] for x in cur)  # levels never decrease
            prev = cur
            levels_against_oracle(t, g, 0, depth)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_exactness_property(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 14)
    m = rng.randint(n - 1, n * (n - 1) // 2)
    g = random_graph(n, m, 6, seed)
    depth = rng.choice([3, 7, 12, inf])
    t = EsTree(g, rng.randrange(n), depth)
    events = []
    edges = list(g.edges())
    rng.shuffle(edges)
    for u, v, w in edges[: m // 2]:
        events.append(UpdateEvent("delete", u, v))
    drain(g, t, events, depth)


def test_works_on_views():
    g = random_graph(16, 40, 5, seed=11)
    sub = InducedSnapshot(g, range(10))
    t = EsTree(sub, 0, inf)
    levels_against_oracle(t, sub, 0, inf)
    art = ArtificialSourceView(g, attach=[2, 9, 13])
    t2 = EsTree(art, art.source_id, inf)
    levels_against_oracle(t2, art, art.source_id, inf)
    # Updates outside the induced view are no-ops for its tree.
    rec = g.apply_update(UpdateEvent("delete", 13, [v for v, _ in g.neighbors(13)][0]))
    assert t.process_update(rec) == []


def test_work_counter_bound():
    # Total edge scans across a full deletion schedule stay within C * m * D.
    g = random_graph(40, 150, 4, seed=7)
    m = g.edge_count
    depth = 25
    t = EsTree(g, 0, depth)
    rng = random.Random(2)
    while g.edge_count:
        u, v, _ = rng.choice(list(g.edges()))
        t.process_update(g.apply_update(UpdateEvent("delete", u, v)))
    assert t.work_counter <= 3 * m * depth


def assert_children_invert_parent(t):
    inverse = {}
    for x, p in t.parent.items():
        if p is not None:
            inverse.setdefault(p, set()).add(x)
    assert {p: kids for p, kids in t.children.items() if kids} == inverse


def test_children_stay_inverse_of_parent_through_full_drain():
    for seed in range(5):
        rng = random.Random(500 + seed)
        g = random_graph(24, 70, 6, seed=40 + seed)
        art = ArtificialSourceView(g, attach=[3, 11, 20])
        trees = [
            EsTree(g, 0, rng.choice([6, 12, inf])),
            EsTree(art, art.source_id, inf),
        ]
        for t in trees:
            assert_children_invert_parent(t)
        while g.edge_count:
            u, v, w = rng.choice(list(g.edges()))
            if w < 6 and rng.random() < 0.3:
                ev = UpdateEvent("increase", u, v, rng.randint(w + 1, 6))
            else:
                ev = UpdateEvent("delete", u, v)
            rec = g.apply_update(ev)
            for t in trees:
                t.process_update(rec)
                assert_children_invert_parent(t)
                levels_against_oracle(t, t.view, t.root, t.depth)
