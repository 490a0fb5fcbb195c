"""Exact depth-bounded tree: exactness per update, change lists, work bound."""

import hashlib
import random
from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from decrsp.es_tree import EsTree
from decrsp.graph import (
    ArtificialSourceView,
    DynamicGraph,
    GraphFormatError,
    InducedSnapshot,
    QueryProbe,
    UpdateError,
    UpdateEvent,
    dijkstra_bounded,
)
from decrsp.harness import fraction_str, generate_instance
from decrsp.layered import FullRangeSssp
from decrsp.oracle import dijkstra

from test_graph_core import (
    InjectedFault,
    assert_poisoned,
    assert_retired_bands_hold_the_source_alone,
    fault_in,
    graph_from_edges,
    random_graph,
    refuse_while_poisoned,
)


def levels_against_oracle(tree, view, root, depth):
    want = {v: d for v, d in dijkstra(view, root).items() if d <= depth}
    got = {v: tree.query(v) for v in view.node_ids() if tree.query(v) != inf}
    assert got == want


def assert_levels_supported(t):
    """Every finite non-root level is its neighbours' minimum route, and every
    node at inf has no neighbour route within the depth bound."""
    assert t.level[t.root] == 0
    for x in t.view.node_ids():
        if x == t.root:
            continue
        best = min((t.query(y) + w for y, w in t.view.neighbors(x)), default=inf)
        if t.query(x) == inf:
            assert best > t.depth, x
        else:
            assert t.query(x) == best, x


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
    assert_levels_supported(t)


def test_nontree_edge_delete_is_noop():
    # The edge was tight for neither endpoint; the change list must be empty.
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
    assert_levels_supported(t)


def test_increase_with_tying_alternative_keeps_level():
    g = graph_from_edges(3, 9, [(0, 1, 2), (0, 2, 4), (1, 2, 2)])
    t = EsTree(g, 0, inf)
    assert t.query(2) == 4
    rec = g.apply_update(UpdateEvent("increase", 0, 2, 5))
    assert t.process_update(rec) == []  # the route through node 1 still gives 4
    assert t.query(2) == 4
    # Edge 0-2 was tight for node 2 only, and its one scan found the tie.
    assert t.work_counter == len(g.neighbors(2))
    assert_levels_supported(t)


def test_change_on_a_non_tight_edge_scans_nothing():
    # 1-2 (weight 5) is tight for neither endpoint; 3-4 leads past the depth
    # bound, so node 4 is at inf and the edge carries neither level.
    g = graph_from_edges(5, 9, [(0, 1, 1), (0, 2, 1), (1, 2, 5), (2, 3, 4), (3, 4, 1)])
    t = EsTree(g, 0, 5)
    before = dict(t.level)
    for ev in (UpdateEvent("increase", 1, 2, 7), UpdateEvent("delete", 1, 2),
               UpdateEvent("delete", 3, 4)):
        assert t.process_update(g.apply_update(ev)) == []
        assert t.work_counter == 0
    assert t.level == before
    assert_levels_supported(t)


def test_depth_cutoff_emits_infinity():
    g = graph_from_edges(3, 9, [(0, 1, 3), (1, 2, 3)])
    t = EsTree(g, 0, 6)
    rec = g.apply_update(UpdateEvent("increase", 0, 1, 4))
    changes = t.process_update(rec)
    assert changes == [(1, 4), (2, inf)]
    assert t.query(2) == inf and 2 not in t.level
    assert_levels_supported(t)


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
    # A node outside the view sits at inf, so no edge is tight for it and a
    # change on its edges costs the view's tree nothing.
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


def test_levels_stay_supported_through_full_drain():
    for seed in range(5):
        rng = random.Random(500 + seed)
        g = random_graph(24, 70, 6, seed=40 + seed)
        art = ArtificialSourceView(g, attach=[3, 11, 20])
        trees = [
            EsTree(g, 0, rng.choice([6, 12, inf])),
            EsTree(art, art.source_id, inf),
        ]
        for t in trees:
            assert_levels_supported(t)
        while g.edge_count:
            u, v, w = rng.choice(list(g.edges()))
            if w < 6 and rng.random() < 0.3:
                ev = UpdateEvent("increase", u, v, rng.randint(w + 1, 6))
            else:
                ev = UpdateEvent("delete", u, v)
            rec = g.apply_update(ev)
            for t in trees:
                t.process_update(rec)
                assert_levels_supported(t)
                levels_against_oracle(t, t.view, t.root, t.depth)


def test_change_stream_on_a_full_drain_is_frozen():
    # Every level change and every source probe's answer of one unbounded
    # tree through a seeded schedule, hashed as the harness hashes a
    # replay's emissions.  A repair-loop change must leave the digest as it is.
    sched = generate_instance(60, 200, 16, "erdos-renyi", 1.0, seed=5,
                              increase_rate=0.3, query_rate=0.3)
    g = sched.build_graph()
    t = EsTree(g, 0, inf)
    digest = hashlib.sha256()
    index = 0
    for item in sched.items:
        if isinstance(item, QueryProbe):
            if item.u == 0:
                digest.update(("Q %d %d %s\n" % (item.u, item.v, fraction_str(t.query(item.v))))
                              .encode())
            continue
        index += 1
        for node, level in t.process_update(g.apply_update(item)):
            digest.update(("U %d %d %s\n" % (index, node, fraction_str(level))).encode())
    assert index == len(sched.updates()) and g.edge_count == 0
    assert digest.hexdigest() == "9057efa592d1196f4278294ebfdf66d96e84dd369b545b1518f8bdac6caac311"


class EsMachine(RuleBasedStateMachine):
    """Deletes, increases, rejected updates, queries and an injected fault on
    a small graph, driving exact trees on the graph and on a distance-to-set
    view beside a default-path ``FullRangeSssp``.  After every step each tree
    (the bands' trees on their mirrors included) holds the from-scratch
    bounded Dijkstra levels and reported exactly the levels that moved; until
    the fault, the full-range answers never fall, stay within 1 + eps and
    cost one read each, and after it every query and update of the
    full-range instance raises ``UpdateError`` and the graph stays as it is.
    A band leaves the full-range instance only once it holds the source
    alone.  ``cut_examples`` counts the examples in which a repair cut a node
    to inf, ``poisoned_examples`` those in which the fault poisoned the
    instance, so that ``runTest`` fails if a derandomized draw stops
    reaching them."""

    cut_examples = 0
    poisoned_examples = 0

    @initialize(n=st.integers(3, 12), w_max=st.integers(1, 16), depth=st.sampled_from([3, 8, inf]),
                eps=st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1)]),
                seed=st.integers(0, 1000))
    def build(self, n, w_max, depth, eps, seed):
        rng = random.Random(seed)
        self.graph = random_graph(n, rng.randint(n - 1, min(2 * n, n * (n - 1) // 2)), w_max, seed)
        source = rng.randrange(n)
        art = ArtificialSourceView(self.graph, attach=rng.sample(range(n), 2))
        self.trees = [EsTree(self.graph, source, depth), EsTree(art, art.source_id, inf)]
        self.full = FullRangeSssp(self.graph, source, eps)
        self.queries = 0
        self.updates = 0
        self.poisoned = False
        self.cut = False  # whether a repair cut a node to inf
        self.levels = {t: dict(t.level) for t in self.all_trees()}
        self.bands = list(self.full.stacks)
        self.answers = self.read_answers()

    def all_trees(self):
        return self.trees + self.full.stacks

    def read_answers(self):
        self.queries += self.graph.n
        return {v: self.full.query(v) for v in self.graph.node_ids()}

    def pick(self, index, weight_below=None):
        edges = [e for e in self.graph.edges() if weight_below is None or e[2] < weight_below]
        return edges[index % len(edges)] if edges else None

    def apply(self, event):
        if self.poisoned:
            refuse_while_poisoned(self.full.apply_event, self.graph, event)
            return
        rec = self.graph.apply_update(event)
        for t in self.trees:
            before = self.levels[t]
            changes = t.process_update(rec)
            moved = sorted(v for v in set(before) | set(t.level)
                           if before.get(v, inf) != t.query(v))
            assert changes == [(v, t.query(v)) for v in moved]
            self.cut |= any(level == inf for _, level in changes)
        changes = self.full.process_update(rec)
        self.updates += 1
        answers = self.read_answers()
        assert changes == [(v, answers[v]) for v in sorted(answers)
                           if answers[v] != self.answers[v]]

    @rule(index=st.integers(0, 10**6))
    def delete(self, index):
        edge = self.pick(index)
        if edge is not None:
            self.apply(UpdateEvent("delete", edge[0], edge[1]))

    @rule(index=st.integers(0, 10**6), bump=st.integers(1, 15))
    def increase(self, index, bump):
        edge = self.pick(index, self.graph.max_weight)
        if edge is not None:
            u, v, w = edge
            self.apply(UpdateEvent("increase", u, v, min(w + bump, self.graph.max_weight)))

    @rule(index=st.integers(0, 10**6),
          kind=st.sampled_from(["absent", "same", "over", "node"]))
    def rejected(self, index, kind):
        n = self.graph.n
        missing = [(a, b) for a in range(n) for b in range(a + 1, n)
                   if not self.graph.has_edge(a, b)]
        edge = self.pick(index)
        if kind == "absent" and missing:
            bad = UpdateEvent("delete", *missing[index % len(missing)])
        elif kind == "node" or edge is None:
            bad = UpdateEvent("delete", [0, Fraction(1, 2), "0", True][index % 4], 0)
        else:
            u, v, w = edge
            bad = UpdateEvent("increase", u, v, w if kind == "same" else self.graph.max_weight + 1)
        with pytest.raises((UpdateError, GraphFormatError)):
            self.full.apply_event(bad)
        if not self.poisoned:
            assert self.read_answers() == self.answers

    @precondition(lambda self: self.updates >= 6 and not self.poisoned)
    @rule(index=st.integers(0, 10**6), band=st.integers(0, 10**6))
    def fault(self, index, band):
        """A delete in which one band of the full-range instance raises; every
        band takes a delete, so the fault always fires."""
        edge = self.pick(index)
        if edge is None:
            return
        stacks = self.full.stacks
        with fault_in(stacks[band % len(stacks)], "process_update"), \
                pytest.raises(InjectedFault):
            self.apply(UpdateEvent("delete", edge[0], edge[1]))
        self.poisoned = True

    @rule(index=st.integers(0, 10**6))
    def query(self, index):
        v = index % self.graph.n
        if self.poisoned:
            with pytest.raises(UpdateError, match="poisoned"):
                self.full.query(v)
            return
        self.queries += 1
        assert self.full.query(v) == self.answers[v]

    @invariant()
    def levels_are_exact_and_answers_in_bound(self):
        # A poisoned instance's bands are half applied; the two trees are not.
        trees = self.trees if self.poisoned else self.all_trees()
        levels = {t: dict(t.level) for t in trees}
        for t, now in levels.items():
            assert now == dijkstra_bounded(t.view, t.root, t.depth)
            assert all(now.get(v, inf) >= lvl for v, lvl in self.levels.get(t, {}).items())
        self.levels = levels
        if self.poisoned:
            nodes = [(v,) for v in self.graph.node_ids()]
            assert_poisoned(self.graph, self.full.apply_event, self.full.query, nodes)
            assert self.full.heap_reads == self.queries
            return
        assert_retired_bands_hold_the_source_alone(self.full, self.bands)
        self.bands = list(self.full.stacks)
        answers = self.read_answers()
        assert self.full.heap_reads == self.queries
        dist = dijkstra_bounded(self.graph, self.full.source, inf)
        bound = 1 + self.full.eps
        for v, est in answers.items():
            assert est >= self.answers[v]
            d = dist.get(v, inf)
            assert est == d == inf or d <= est <= bound * d
        self.answers = answers

    def teardown(self):
        EsMachine.cut_examples += self.cut
        EsMachine.poisoned_examples += self.poisoned


class test_es_state_machine(EsMachine.TestCase):  # named as the suite knows it
    settings = settings(max_examples=60, stateful_step_count=20, derandomize=True,
                        deadline=None)

    def runTest(self):
        EsMachine.cut_examples = EsMachine.poisoned_examples = 0
        super().runTest()
        assert EsMachine.cut_examples > 0, "no repair cut a node to inf"
        assert EsMachine.poisoned_examples > 0, "no fault poisoned the instance"
