"""Tests for the approximate-ball layer.

Expected values come from two independent sources: hand-simulated scripted
scenarios on small paths (radii, scopes, and event lists worked out from the
bucket formula and exact distances), and a per-update oracle battery that
recomputes true distances, exact balls, and witness bounds from scratch with
Dijkstra after every change.
"""

from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decrsp.apsp import ApspState
from decrsp.balls import BallChangeSet, BallEvent, BallSystem
from decrsp.graph import (
    ArtificialSourceView,
    DynamicGraph,
    InducedSnapshot,
    ParamConfigError,
    UpdateEvent,
    dijkstra_bounded,
)
from decrsp.harness import generate_instance
from decrsp.layered import FullRangeSssp, LayerAssembly
from decrsp.monotone_tree import MonotoneEsTree
from decrsp.sampling import PriorityAssignment, sample_priorities

from ball_oracles import (
    max_rebuilds_allowed,
    radius_from_watched,
    structural_witness,
    witness_proviso_holds,
    witness_reach,
)
from checks import check_routing
from test_graph_core import graph_from_edges, random_graph, traced


def manual_assignment(n, p, upper_sets):
    """Assignment with hand-picked upper level sets A_1..A_{p-1}."""
    assert len(upper_sets) == p - 1
    level_sets = [frozenset(range(n))]
    level_sets += [frozenset(s) for s in upper_sets]
    level_sets.append(frozenset())
    priority = {}
    for i in range(1, p):
        for u in level_sets[i]:
            priority[u] = max(priority.get(u, 0), i)
    return PriorityAssignment(p, tuple(level_sets), tuple(() for _ in range(p - 1)), priority)


def path_graph(n, w=1, max_weight=None):
    return graph_from_edges(n, max_weight or max(w, 1),
                            [(i, i + 1, w) for i in range(n - 1)])


def dist_fn(graph):
    cache = {}

    def fn(u, v):
        if u not in cache:
            cache[u] = dijkstra_bounded(graph, u, inf)
        return cache[u].get(v, inf)

    return fn


# -- radius formula -----------------------------------------------------------


def test_radius_formula_frozen_examples():
    # eps=1, alpha=1, watched 17, depth 100: floor(log2 16) = 4 -> 16.
    assert radius_from_watched(17, 1, 1, 100) == 16
    # Watched value infinite (top priority / unreachable set) -> full depth.
    assert radius_from_watched(inf, 1, 1, 100) == 100
    # eps=1, alpha=2, watched 10, depth 3: min(8/2, 3) = 3.
    assert radius_from_watched(10, 1, 2, 3) == 3
    # Watched at most 1: log undefined, radius pinned to zero.
    assert radius_from_watched(1, 1, 1, 100) == 0
    assert radius_from_watched(Fraction(1, 2), 1, 1, 100) == 0


@given(
    val=st.integers(min_value=2, max_value=10**6),
    eps_num=st.integers(min_value=1, max_value=8),
    eps_den=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=120, deadline=None)
def test_radius_bucket_power_is_maximal(val, eps_num, eps_den):
    eps = Fraction(eps_num, eps_den)
    r = radius_from_watched(val, eps, 1, inf)
    power = r  # alpha=1, no depth cap: radius IS the bucket power
    assert power <= val - 1 < power * (1 + eps)


@pytest.mark.parametrize("eps", [Fraction(1), Fraction(1, 3), Fraction(2, 7)])
def test_current_radius_matches_the_pure_formula_at_bucket_boundaries(eps):
    # Watched values at, just below and just above 1 + (1+eps)^j, as ints and
    # Fractions, in rising order as a watcher reports them.
    graph = path_graph(6, w=4, max_weight=16)
    system = BallSystem(graph, manual_assignment(6, 2, [{5}]), MonotoneEsTree,
                        alpha=Fraction(3, 2), depth=40, bucket_eps=eps)
    values = [Fraction(1, 2), 1, 2]
    power = Fraction(1)
    while power < 60:
        for delta in (-Fraction(1, 97), 0, Fraction(1, 97)):
            values.append(power + 1 + delta)
        values += [power.numerator // power.denominator + 1,
                   -(-power.numerator // power.denominator) + 1]
        power *= 1 + eps
    for val in sorted(values) + [inf]:
        system._watched_value = lambda u, val=val: val
        want = radius_from_watched(val, eps, system.alpha, system.depth)
        assert system._current_radius(0) == want  # from the last value's bucket
        system._bucket.pop(0, None)
        assert system._current_radius(0) == want  # from bucket 0


@given(
    a_num=st.integers(min_value=1, max_value=6),
    b_num=st.integers(min_value=1, max_value=6),
    x=st.integers(min_value=0, max_value=50),
    l=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=100, deadline=None)
def test_witness_reach_matches_recurrence(a_num, b_num, x, l):
    # Closed form vs the chain recurrence f(1) = a*x + b, f(l+1) = (a+1)f(l) + b.
    a = Fraction(a_num, 2)
    b = Fraction(b_num, 2)
    f = a * x + b
    for _ in range(l - 1):
        f = (a + 1) * f + b
    assert witness_reach(a, b, x, l) == f


# -- initialization against the static definitions ----------------------------


def exact_level_distance(graph, nodes):
    if not nodes:
        return {}
    view = ArtificialSourceView(graph, nodes)
    dist = dijkstra_bounded(view, view.source_id, inf)
    del dist[view.source_id]
    return dist


def brute_force_state(graph, assignment, alpha, depth, eps):
    """Evaluate radii, scopes, and balls directly from the definitions,

    assuming an exact inner contract (estimates = true distances)."""
    alpha = Fraction(alpha)
    threshold = inf if depth == inf else alpha * depth
    per_level = {
        i: exact_level_distance(graph, assignment.level_sets[i])
        for i in range(1, assignment.p)
    }
    out = {}
    for u in sorted(graph.node_ids()):
        i = assignment.priority_of(u)
        watched = inf if i + 1 >= assignment.p else per_level[i + 1].get(u, inf)
        r = radius_from_watched(watched, eps, alpha, depth)
        scope = dict(dijkstra_bounded(graph, u, r))
        members = {
            v: d for v, d in scope.items()
            if (d != inf if threshold == inf else d <= threshold)
        }
        out[u] = (r, frozenset(scope), members)
    return out


def test_init_matches_static_definition_ten_nodes():
    graph = random_graph(10, 16, 4, seed=7)
    assignment = manual_assignment(10, 3, [{0, 3, 8}, {8}])
    system = BallSystem(graph, assignment, MonotoneEsTree, alpha=1, depth=9,
                        bucket_eps=1)
    expected = brute_force_state(graph, assignment, 1, 9, 1)
    for u in graph.node_ids():
        r, scope, members = expected[u]
        assert system.radius(u) == r
        assert system.scope(u) == scope
        assert system.members(u) == members


@pytest.mark.parametrize(
    "bad",
    [dict(bucket_eps=0), dict(bucket_eps=Fraction(3, 2)), dict(alpha=Fraction(1, 2)),
     dict(depth=inf), dict(depth=float("nan"))],
)
def test_parameter_checks_raise_typed_errors(bad):
    graph = path_graph(4)
    assignment = manual_assignment(4, 2, [{3}])
    params = dict(alpha=1, depth=5, bucket_eps=1) | bad
    with pytest.raises(ParamConfigError):
        BallSystem(graph, assignment, MonotoneEsTree, **params)


def test_tiny_bucket_eps_is_rejected():
    # log(n*W) / log(1 + eps) passes MAX_BUCKETS long before eps underflows.
    graph = path_graph(4)
    assignment = manual_assignment(4, 2, [{3}])
    for eps in (Fraction(1, 10**4), Fraction(1, 10**400)):
        with pytest.raises(ParamConfigError, match="4096 buckets"):
            BallSystem(graph, assignment, MonotoneEsTree, alpha=1, depth=5, bucket_eps=eps)


def test_top_priority_scope_covers_depth():
    graph = path_graph(8)
    assignment = manual_assignment(8, 2, [{7}])
    system = BallSystem(graph, assignment, MonotoneEsTree, alpha=1, depth=5,
                        bucket_eps=1)
    # Priority p-1 watches the empty set: radius equals the depth bound and the
    # scope holds every node within that distance.
    assert system.radius(7) == 5
    assert system.scope(7) == frozenset({2, 3, 4, 5, 6, 7})
    est = system.members(7)
    assert est.keys() == {2, 3, 4, 5, 6, 7}
    assert est[2] == 5 and est[7] == 0


def test_isolated_node_is_singleton():
    graph = graph_from_edges(4, 1, [(0, 1, 1)])  # 2 and 3 isolated
    assignment = manual_assignment(4, 2, [{1}])
    system = BallSystem(graph, assignment, MonotoneEsTree, alpha=1, depth=3,
                        bucket_eps=1)
    for u in (2, 3):
        assert system.radius(u) == 3  # watched value inf -> full depth
        assert system.scope(u) == frozenset({u})
        assert system.members(u) == {u: 0}


# -- scripted update scenarios -------------------------------------------------


def apply(graph, system, event):
    rec = graph.apply_update(event)
    return system.process_update(rec)


def test_bucket_crossing_rebuild_on_path():
    # Path 0-..-7, unit weights, A_1 = {7}: watched(u) = dist(u, 7) = 7-u.
    graph = path_graph(8, max_weight=3)
    assignment = manual_assignment(8, 2, [{7}])
    system = BallSystem(graph, assignment, MonotoneEsTree, alpha=1, depth=100,
                        bucket_eps=1)
    assert [system.radius(u) for u in range(8)] == [4, 4, 4, 2, 2, 1, 0, 100]
    assert system.members(0).keys() == {0, 1, 2, 3, 4}
    assert system.members(1).keys() == {0, 1, 2, 3, 4, 5}
    assert system.members(6).keys() == {6}
    assert system.members(7).keys() == set(range(8))

    # Raising (6,7) to 3 moves watched(u) from 7-u to 9-u; buckets cross for
    # u in {0, 3, 4, 5, 6} but not u in {1, 2}.
    changes = apply(graph, system, UpdateEvent("increase", 6, 7, 3))
    assert [system.radius(u) for u in range(8)] == [8, 4, 4, 4, 4, 2, 2, 100]
    assert changes.events == (
        BallEvent("join", 0, 5, 5),
        BallEvent("join", 0, 6, 6),
        BallEvent("join", 3, 0, 3),
        BallEvent("join", 3, 6, 3),
        BallEvent("join", 4, 0, 4),
        BallEvent("join", 4, 1, 3),
        BallEvent("join", 5, 3, 2),
        BallEvent("join", 6, 4, 2),
        BallEvent("join", 6, 5, 1),
        BallEvent("est", 7, 0, 9),
        BallEvent("est", 7, 1, 8),
        BallEvent("est", 7, 2, 7),
        BallEvent("est", 7, 3, 6),
        BallEvent("est", 7, 4, 5),
        BallEvent("est", 7, 5, 4),
        BallEvent("est", 7, 6, 3),
    )
    # Rebuild bookkeeping: exactly the crossed buckets rebuilt once.
    assert {u: system.rebuild_counts[u] for u in range(8)} == {
        0: 1, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1, 6: 1, 7: 0,
    }
    # Post-state agrees with the static definitions evaluated from scratch.
    expected = brute_force_state(graph, assignment, 1, 100, 1)
    for u in graph.node_ids():
        assert system.members(u).keys() == expected[u][2].keys()


def test_disconnection_inside_scope_emits_leaves():
    graph = path_graph(3, max_weight=1)
    assignment = manual_assignment(3, 2, [set()])  # empty A_1: all watched = inf
    system = BallSystem(graph, assignment, MonotoneEsTree, alpha=1, depth=5,
                        bucket_eps=1)
    assert all(system.members(u).keys() == {0, 1, 2} for u in range(3))
    changes = apply(graph, system, UpdateEvent("delete", 1, 2))
    assert changes.events == (
        BallEvent("leave", 0, 2),
        BallEvent("leave", 1, 2),
        BallEvent("leave", 2, 0),
        BallEvent("leave", 2, 1),
    )
    assert system.members(2).keys() == {2}
    assert system.estimate(2, 0) == inf


def test_update_without_bucket_or_estimate_change_is_empty():
    graph = graph_from_edges(
        5, 1, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (3, 4, 1)]
    )
    assignment = manual_assignment(5, 2, [{0}])
    system = BallSystem(graph, assignment, MonotoneEsTree, alpha=1, depth=4,
                        bucket_eps=1)
    # Deleting (1,2) changes no distance to 0 and no level inside any scope
    # that contains both endpoints.
    changes = apply(graph, system, UpdateEvent("delete", 1, 2))
    assert changes == BallChangeSet(())
    assert changes.events == ()


class InflatingTree:
    """Exact tree reporting estimates scaled by a fixed factor >= 1.

    Satisfies the contract for any declared slack covering the factor; lets
    tests force a later rebuild to report *smaller* raw values."""

    def __init__(self, view, source, depth, levels, factor):
        self._tree = MonotoneEsTree(view, source, depth, levels)
        self._factor = Fraction(factor)

    def _scale(self, val):
        return val if val == inf else val * self._factor

    def query(self, v):
        return self._scale(self._tree.query(v))

    def process_update(self, rec):
        return [(node, self._scale(val)) for node, val in self._tree.process_update(rec)]


def test_rebuild_clamps_estimates_against_history():
    graph = path_graph(4, max_weight=3)
    assignment = manual_assignment(4, 2, [{3}])
    seen_zero = []

    def factory(view, source, depth, levels):
        # First instance rooted at node 0 inflates by 5/4; everything else
        # (watchers, other balls, the rebuild of ball 0) reports exactly.
        if source == 0 and not seen_zero:
            seen_zero.append(True)
            return InflatingTree(view, source, depth, levels, Fraction(5, 4))
        return MonotoneEsTree(view, source, depth, levels)

    system = BallSystem(graph, assignment, factory, alpha=Fraction(5, 4),
                        depth=10, bucket_eps=1)
    assert system.radius(0) == Fraction(8, 5)
    assert system.members(0).keys() == {0, 1}
    assert system.estimate(0, 1) == Fraction(5, 4)

    changes = apply(graph, system, UpdateEvent("increase", 2, 3, 3))
    # Ball 0 rebuilt (watched 3 -> 5 crosses a power of two); the fresh exact
    # instance reports est(1) = 1 < 5/4, which the clamp must absorb silently.
    assert system.radius(0) == Fraction(16, 5)
    assert system.members(0).keys() == {0, 1, 2}
    assert system.estimate(0, 1) == Fraction(5, 4)
    assert changes.events == (
        BallEvent("join", 0, 2, 2),
        BallEvent("join", 1, 0, 1),
        BallEvent("join", 1, 2, 1),
        BallEvent("join", 2, 1, 1),
        BallEvent("est", 3, 0, 5),
        BallEvent("est", 3, 1, 4),
        BallEvent("est", 3, 2, 3),
    )


# -- per-update oracle battery --------------------------------------------------


def replay_journal(snapshot, changesets):
    state = {u: dict(members) for u, members in snapshot.items()}
    for cs in changesets:
        for e in cs.events:
            if e.kind == "join":
                assert e.member not in state[e.owner]
                state[e.owner][e.member] = e.estimate
            elif e.kind == "leave":
                del state[e.owner][e.member]
            else:
                assert state[e.owner][e.member] < e.estimate
                state[e.owner][e.member] = e.estimate
    return state


class InvariantChecker:
    """Re-derives every checkable ball property from scratch after an update.

    Each ball's inner exact tree, seeded from its scope search at the last
    rebuild, must hold the bounded Dijkstra levels on its snapshot.

    Containment and the estimate upper bound are frozen-scope properties: a
    scope is a snapshot, so they are asserted against the exact ball at the
    scope's construction time (scope/joins vs the current ball at that moment)
    and, for the estimate sandwich, only within the current radius — outside
    it the current shortest path may exit the frozen scope, and the gadget
    tests below show both literal at-any-time forms genuinely fail.
    """

    def __init__(self, graph, system, alpha, depth):
        self.graph = graph
        self.system = system
        self.assignment = system.assign
        self.alpha = Fraction(alpha)
        self.depth = depth
        self.seen_rebuilds = dict(system.rebuild_counts)
        # Exact ball at the last scope construction (init counts as one).
        self.ball_at_construction = {}
        d = dist_fn(graph)
        for u in graph.node_ids():
            self.ball_at_construction[u] = self.exact_ball(u, d)
            assert set(system.scope(u)) <= self.ball_at_construction[u]

    def exact_ball(self, u, d):
        i = self.assignment.priority_of(u)
        members = self.assignment.level_sets[i + 1] if i + 1 <= self.assignment.p else ()
        if not members:
            watched_true = inf
        else:
            per = exact_level_distance(self.graph, members)
            watched_true = per.get(u, inf)
        return {v for v in self.graph.node_ids() if d(u, v) < watched_true} | {u}

    def check(self):
        graph, system, assignment = self.graph, self.system, self.assignment
        d = dist_fn(graph)
        per_level = {
            i: exact_level_distance(graph, assignment.level_sets[i])
            for i in range(1, assignment.p)
        }
        for u in sorted(graph.node_ids()):
            i = assignment.priority_of(u)
            watched_true = inf if i + 1 >= assignment.p else per_level[i + 1].get(u, inf)
            watched_sys = system._watched_value(u)
            assert watched_sys >= watched_true  # A1 through the watcher contract
            assert system.radius(u) == radius_from_watched(
                watched_sys, system.eps, self.alpha, self.depth
            )
            if system.rebuild_counts[u] != self.seen_rebuilds[u]:
                # Scope was reconstructed this update: it must sit inside the
                # exact ball evaluated right now, which becomes the new frame.
                self.seen_rebuilds[u] = system.rebuild_counts[u]
                self.ball_at_construction[u] = self.exact_ball(u, d)
                assert set(system.scope(u)) <= self.ball_at_construction[u]
            inner = system._inner[u]
            if inner is not None:
                tree = getattr(inner, "_tree", inner)  # an InflatingTree's exact tree
                assert tree.level == dijkstra_bounded(system._snapshot[u], u, tree.cap)
            est = system.members(u)
            assert est.keys() <= self.ball_at_construction[u]
            r = system.radius(u)
            for v in est:
                dist = d(u, v)
                assert dist <= est[v]  # estimates never underestimate
                assert est[v] <= system.threshold
                if dist <= r:
                    assert est[v] <= self.alpha * dist
            assert system.rebuild_counts[u] <= max_rebuilds_allowed(system)
        # B2: whenever the chain bound fits under the depth, a witness exists.
        for u in sorted(graph.node_ids()):
            for v in sorted(graph.node_ids()):
                if u == v or not witness_proviso_holds(system, u, v, d):
                    continue
                kind, _, j = structural_witness(system, u, v, d)
                assert kind in ("in_ball", "witness")
                if kind == "witness":
                    assert j > assignment.priority_of(u)


@pytest.mark.parametrize("declared", [(1, None), (Fraction(5, 4), Fraction(5, 4))])
@pytest.mark.parametrize("seed", [3, 11, 27])
def test_properties_hold_after_every_update(declared, seed):
    alpha, inflate = declared
    n, m = 24, 44
    graph = random_graph(n, m, 4, seed=seed)
    system = BallSystem(
        graph, sample_priorities(graph, 3, 2.0, seed * 5 + 1),
        (lambda view, source, depth, levels: InflatingTree(view, source, depth, levels,
                                                             inflate))
        if inflate else MonotoneEsTree,
        alpha=alpha, depth=8, bucket_eps=1,
    )
    journal = system.initial_membership()
    checker = InvariantChecker(graph, system, alpha, 8)
    checker.check()
    import random as _random

    rng = _random.Random(seed + 99)
    prev_est = {}
    folded_out = 0
    for _ in range(12):
        edges = list(graph.edges())
        if not edges:
            break
        u, v, w = edges[rng.randrange(len(edges))]
        if w < graph.max_weight and rng.random() < 0.4:
            event = UpdateEvent("increase", u, v, rng.randint(w + 1, graph.max_weight))
        else:
            event = UpdateEvent("delete", u, v)
        rebuilds = dict(system.rebuild_counts)
        changes = apply(graph, system, event)
        # The journal, replayed update by update, is the tables themselves.
        journal = replay_journal(journal, [changes])
        assert journal == system.initial_membership()
        for e in changes.events:
            if e.kind == "leave":
                assert e.member not in system.members(e.owner)
                # A leave with no rebuild of its ball is a fold past the threshold.
                folded_out += system.rebuild_counts[e.owner] == rebuilds[e.owner]
        checker.check()
        live = set()
        for x in graph.node_ids():
            est = system.members(x)
            for y in est:
                key = (x, y)
                live.add(key)
                if key in prev_est:
                    # estimates never decrease within a membership lifetime
                    assert est[y] >= prev_est[key]
                prev_est[key] = est[y]
        for key in list(prev_est):
            if key not in live:  # a later rejoin starts a fresh lifetime
                del prev_est[key]
    assert folded_out > 0


def test_containment_holds_at_construction_time_not_pointwise():
    # Frozen-scope boundary: after the scope is built, a member's distance can
    # drift past the exact-ball threshold without any bucket crossing.  The
    # sound guarantee is containment in the ball evaluated when the scope was
    # constructed, and that is what the checker asserts.
    graph = graph_from_edges(4, 5, [(0, 1, 4), (0, 2, 4), (1, 2, 2), (0, 3, 5)])
    assignment = manual_assignment(4, 2, [{3}])
    system = BallSystem(graph, assignment, MonotoneEsTree, alpha=1, depth=8,
                        bucket_eps=1)
    assert system.radius(0) == 4
    assert system.members(0).keys() == {0, 1, 2}
    d0 = dist_fn(graph)
    ball_at_construction = {v for v in range(4) if d0(0, v) < d0(0, 3)}
    assert ball_at_construction == {0, 1, 2}

    apply(graph, system, UpdateEvent("delete", 0, 1))
    d1 = dist_fn(graph)
    assert d1(0, 1) == 6 and d1(0, 3) == 5  # node 1 left the exact ball...
    current_ball = {v for v in range(4) if d1(0, v) < d1(0, 3)}
    assert current_ball == {0, 2}
    assert system.members(0).keys() == {0, 1, 2}  # ...but stays in B(0) by design
    assert system.estimate(0, 1) == 6
    assert system.members(0).keys() <= ball_at_construction  # the sound containment


def test_estimate_upper_bound_limited_to_current_radius():
    # A member whose current shortest path exits the frozen scope can carry an
    # estimate above alpha*dist; the sandwich upper bound is only
    # guaranteed while dist(u,v) <= r(u), where the whole current path
    # provably lies inside the scope.
    graph = graph_from_edges(
        5, 8,
        [(0, 1, 4), (0, 2, 4), (1, 2, 2), (0, 3, 5), (0, 4, 5), (1, 4, 1)],
    )
    assignment = manual_assignment(5, 2, [{3}])
    system = BallSystem(graph, assignment, MonotoneEsTree, alpha=1, depth=9,
                        bucket_eps=1)
    assert system.radius(0) == 4
    assert system.scope(0) == frozenset({0, 1, 2})  # node 4 sits at distance 5

    apply(graph, system, UpdateEvent("increase", 0, 1, 8))
    apply(graph, system, UpdateEvent("increase", 1, 2, 4))
    d = dist_fn(graph)
    assert d(0, 1) == 6  # via the outside detour 0-4-1
    assert 1 in system.members(0)
    assert system.estimate(0, 1) == 8  # shortest path inside the frozen scope
    assert system.estimate(0, 1) > d(0, 1)  # above alpha*dist, as allowed
    assert d(0, 1) > system.radius(0)  # the guarantee's precondition fails
    # Within the radius the sandwich holds (exact contract: est == dist).
    assert d(0, 2) == 4 <= system.radius(0)
    assert system.estimate(0, 2) == 4
    for v in system.members(2):
        if d(2, v) <= system.radius(2):
            assert system.estimate(2, v) == d(2, v)


def test_witness_search_is_exercised_nontrivially():
    # Seeded 12-node instance where at least one pair resolves via an actual
    # higher-priority witness (not just in-ball membership).
    graph = random_graph(12, 22, 3, seed=5)
    system = BallSystem(graph, sample_priorities(graph, 3, 2.0, 17), MonotoneEsTree,
                        alpha=1, depth=6, bucket_eps=1)
    d = dist_fn(graph)
    kinds = set()
    for u in graph.node_ids():
        for v in graph.node_ids():
            if u == v or not witness_proviso_holds(system, u, v, d):
                continue
            kinds.add(structural_witness(system, u, v, d)[0])
    assert "none" not in kinds
    assert "witness" in kinds or "in_ball" in kinds


@pytest.mark.parametrize("mode, seed", [("apsp", 1), ("apsp", 2), ("p4q3", 1), ("p4q3", 2)])
def test_radius_follows_the_live_watcher_after_every_update(mode, seed):
    # Radii are recomputed only for the nodes the watchers report; every
    # other node's radius must still equal the one its live watcher implies.
    sched = generate_instance(24, 48, 8, "erdos-renyi", 1.0, seed=seed, increase_rate=0.3)
    graph = sched.build_graph()
    if mode == "apsp":
        state = ApspState(graph, 2, Fraction(1, 2), seed, c=0.25)
        systems, step = [state.balls], state.process_update
    else:
        full = FullRangeSssp(graph, 0, Fraction(1, 2), p=4, q=3, seed=seed)
        step = full.apply_event
        systems = [s.balls for s in full.stacks if isinstance(s, LayerAssembly)]
    assert systems
    events = [item for item in sched.items if isinstance(item, UpdateEvent)]
    checked = 0
    for event in events:
        step(event)
        for system in systems:
            for u in system.view.node_ids():
                watcher = system._set_inst.get(system.assign.priority_of(u) + 1)
                watched = inf if watcher is None else watcher.query(u)
                expected = radius_from_watched(watched, system.eps, system.alpha,
                                               system.depth)
                assert system.radius(u) == expected, (u, watched)
                checked += watched != inf
    assert checked > 0


def test_lone_balls_hold_nothing_extra():
    # The one edge is longer on the band's mirror than any radius, so all
    # 4096 balls are lone.  Each keeps its one-entry table and no scope set,
    # member set or owners set; with those, the build holds 5.7 MiB.
    graph = DynamicGraph(4096, 1)
    graph.add_edge(0, 1, 1)
    full, held = traced(lambda: FullRangeSssp(graph, 0, 1, p=4, q=3))
    assert held <= 3 * 2**20
    [balls] = [s.balls for s in full.stacks if isinstance(s, LayerAssembly)]
    assert balls._owners == {}
    assert all(balls.members(u) == {u: 0} and balls.scope(u) == {u} for u in range(4096))


@pytest.mark.parametrize("mode, seed", [("apsp", 3), ("apsp", 4), ("p4q3", 3), ("p4q3", 4)])
def test_routing_index_and_snapshots_track_every_update(mode, seed):
    sched = generate_instance(24, 48, 8, "erdos-renyi", 1.0, seed=seed, increase_rate=0.3)
    graph = sched.build_graph()
    if mode == "apsp":
        state = ApspState(graph, 2, Fraction(1, 2), seed, c=0.25)
        systems, step = [state.balls], state.process_update
    else:
        full = FullRangeSssp(graph, 0, Fraction(1, 2), p=4, q=3, seed=seed)
        step = full.apply_event
        systems = [s.balls for s in full.stacks if isinstance(s, LayerAssembly)]
    assert systems
    live = sum(check_routing(system) for system in systems)
    rebuilds = sum(sum(system.rebuild_counts.values()) for system in systems)
    for event in sched.updates():
        step(event)
        live += sum(check_routing(system) for system in systems)
    # Scopes were rebuilt along the way, and snapshots were checked.
    assert live > 0
    assert sum(sum(system.rebuild_counts.values()) for system in systems) > rebuilds


@pytest.mark.parametrize("mode", ["balls", "apsp"])
@pytest.mark.parametrize("seed", [5, 6, 7])
def test_snapshots_receive_only_records_on_their_own_edges(monkeypatch, mode, seed):
    # No view filters records: the owners index alone must keep every change
    # that reaches a snapshot (and the inner instance fed right after it) on
    # an edge of that snapshot.
    write = InducedSnapshot.apply_record
    seen = []

    def checked_write(snapshot, rec):
        assert rec.u in snapshot.node_set and rec.v in snapshot.node_set, rec
        assert snapshot.has_edge(rec.u, rec.v), rec
        seen.append(rec)
        write(snapshot, rec)

    monkeypatch.setattr(InducedSnapshot, "apply_record", checked_write)
    sched = generate_instance(24, 48, 8, "erdos-renyi", 1.0, seed=seed, increase_rate=0.3)
    graph = sched.build_graph()
    if mode == "apsp":
        step = ApspState(graph, 2, Fraction(1, 2), seed, c=0.25).process_update
    else:
        system = BallSystem(graph, sample_priorities(graph, 3, 2.0, seed), MonotoneEsTree,
                            alpha=1, depth=8, bucket_eps=1)

        def step(event):
            system.process_update(graph.apply_update(event))

    for event in sched.updates():
        step(event)
    assert graph.edge_count == 0 and seen
