"""Parameter-series identities and shortcut-graph behaviour.

Frozen numeric expectations were computed by a separate straight-line
evaluation of the series formulas (r_0 = delta; s_i = a*r_i + b;
w_i = alpha*s_i + beta; r_i = ((alpha+1+eps)*sum_{j<i} w_j + beta)/eps;
gamma_{p-1} = beta; gamma_i = gamma_{i+1} + (alpha+1+eps)*w_i) before the
module existed, and are asserted here as literals.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import inf
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decrsp.balls import (
    BallChangeSet,
    BallEvent,
    BallSystem,
)
from decrsp.es_tree import EsTree
from decrsp.graph import DynamicGraph, ParamConfigError, UpdateEvent, dijkstra_bounded
from decrsp.hopset import (
    ShortcutGraph,
    derive_params,
    integer_root_ceil,
    shortcut_process_update,
)
from decrsp.monotone_tree import DuplicateEdgeError
from decrsp.sampling import sample_priorities

from checks import StructureChecks
from test_graph_core import graph_from_edges, random_graph


# ---------------------------------------------------------------------------
# parameter series


def test_frozen_series_small_case():
    ps = derive_params(1, 0, 1, 1, 1, 2, 2, 4, 256)
    assert ps.admissible
    assert ps.r == (2, 9)
    assert ps.s == (3, 10)
    assert ps.w == (3, 10)
    assert ps.gamma == (9, 0)
    assert ps.gamma_total == 13
    assert ps.phi == Fraction(2, 3)
    assert ps.root_bound == 16
    assert ps.level_cap == 66
    assert ps.weight_cap == 36
    assert ps.hop_budget(5, 0) == 9
    assert ps.hop_budget(1, 1) == 2
    assert ps.hop_budget(2, 0) == 3
    assert ps.hop_budget(inf, 0) == inf


def test_series_matches_reach_and_weight_recurrences():
    # alpha=1, beta=0, eps=1 with a=2, b=1: the first reach bound is
    # 2*delta+1, the first weight budget equals it, and the next radius is
    # three times that.
    for delta in (1, 3, 8):
        ps = derive_params(1, 0, 2, 1, 1, 2, delta, 2 * delta, 10**12)
        assert ps.s[0] == 2 * delta + 1
        assert ps.w[0] == 2 * delta + 1
        assert ps.r[1] == 3 * (2 * delta + 1)
        assert ps.gamma[ps.p - 1] == ps.beta


def test_rounding_grain_example():
    # eps=1, delta=8, p=3 gives grain 8/4 = 2.
    ps = derive_params(1, 0, 1, 1, 1, 3, 8, 8, 4**9)
    assert ps.admissible
    assert ps.phi == 2


def test_precondition_errors():
    with pytest.raises(ParamConfigError, match="alpha"):
        derive_params(Fraction(1, 2), 0, 1, 1, 1, 2, 2, 4, 256)
    with pytest.raises(ParamConfigError, match="beta"):
        derive_params(1, 2, 1, 1, 1, 2, 2, 4, 256)
    with pytest.raises(ParamConfigError, match="eps"):
        derive_params(1, 0, 1, 1, 2, 2, 2, 4, 256)
    with pytest.raises(ParamConfigError, match="delta"):
        derive_params(1, 0, 1, 3, 1, 2, 2, 4, 256)
    with pytest.raises(ParamConfigError, match="depth"):
        derive_params(1, 0, 1, 1, 1, 2, 4, 2, 256)
    with pytest.raises(ParamConfigError, match="integer"):
        derive_params(1, 0, 1, 1, 1, 1, 2, 4, 256)


def test_identity_sweep_200_draws():
    """Random in-precondition draws; identities recomputed independently."""
    rng = random.Random(20260814)
    menu_a = [Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2)]
    menu_eps = [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)]
    for _ in range(200):
        a = rng.choice(menu_a)
        eps = rng.choice(menu_eps)
        alpha = rng.choice([f for f in menu_a if f <= a])
        p = rng.choice([2, 2, 2, 3])
        b = Fraction(rng.randint(1, 3))
        beta = b * Fraction(rng.randint(0, 4), 4)
        delta = rng.randint(int(b), int(b) + 6)
        if delta < b:
            delta = int(b)
        depth = delta + rng.randint(0, 20)
        base = 4 * a**3 / eps
        n_min = base ** (p * p)
        n = n_min.numerator // n_min.denominator + (1 if n_min.denominator > 1 else 0)
        n = max(n, 2)
        ps = derive_params(alpha, beta, a, b, eps, p, delta, depth, n)
        assert ps.admissible
        # gamma chain and radius/error correspondence
        assert ps.gamma[p - 1] == beta
        for i in range(p - 2, -1, -1):
            assert ps.gamma[i] == ps.gamma[i + 1] + (alpha + 1 + eps) * ps.w[i]
        for i in range(1, p):
            assert eps * ps.r[i] == ps.gamma[0] - ps.gamma[i] + beta
        # the i=0 form of the correspondence pins eps*delta to beta, which
        # generic draws do not satisfy; its truth value must match exactly
        assert (eps * ps.r[0] == ps.gamma[0] - ps.gamma[0] + beta) == (eps * delta == beta)
        # closed-form growth bounds
        wsum = Fraction(0)
        for i in range(p):
            wsum += ps.w[i]
            bound_w = (4**i * a ** (3 * i + 2) * delta + (3 * 4**i - 1) * a ** (3 * i + 1) * b) / eps**i
            assert wsum <= bound_w
            if i >= 1:
                bound_r = (
                    3 * 4 ** (i - 1) * a ** (3 * i) * delta
                    + (9 * 4 ** (i - 1) - 2) * a ** (3 * i - 1) * b
                ) / eps**i
                assert ps.r[i] <= bound_r
        # additive-error and top-radius budgets, exact p-th power form
        assert ((a * ps.gamma_total + b) / (eps * delta)) ** p <= n
        assert ((a * ps.r[p - 1] + b) / delta) ** p <= n


@settings(max_examples=250)
@given(
    st.one_of(
        st.integers(0, 10**9),
        st.builds(Fraction, st.integers(0, 10**7), st.integers(1, 997)),
    ),
    st.integers(1, 6),
)
def test_integer_root_ceil_is_tight(value, p):
    x = integer_root_ceil(value, p)
    assert x >= 1 and x**p >= value
    assert x == 1 or (x - 1) ** p < value


@pytest.mark.parametrize("value, p", [(10**400 + 1, 3), (Fraction(10**401, 7), 2), (2**4000, 5)])
def test_integer_root_ceil_is_tight_beyond_float_range(value, p):
    x = integer_root_ceil(value, p)
    assert x**p >= value > (x - 1) ** p


GUARDS_UNDER_OPTIMIZE = """
from ball_oracles import witness_reach
from decrsp.harness import static_hopset_check
from decrsp.hopset import derive_params, integer_root_ceil
from decrsp.graph import DynamicGraph
params = derive_params(1, 0, 2, 1, 1, 2, 2, 10, 8)
for call in (lambda: witness_reach(2, 1, 5, 0), lambda: integer_root_ceil(5, 0),
             lambda: params.hop_budget(3, 2),
             lambda: static_hopset_check(DynamicGraph(3), 1, 1, 1, seed=0)):
    try:
        print("returned", call())
    except AssertionError as exc:
        print("rejected", exc)
"""


def test_internal_guards_hold_under_optimize():
    # Under -O a bare assert vanishes: witness_reach(2, 1, 5, 0) returned
    # 3.33 and integer_root_ceil(5, 0) never returned.
    tests = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(tests.parent / "src"), str(tests), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-O", "-c", GUARDS_UNDER_OPTIMIZE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "rejected chain length l=0 must be >= 1",
        "rejected root degree p=0 must be >= 1",
        "rejected priority 2 outside [0, 2)",
        "rejected need 0 < eps <= 1, p >= 2 and delta >= 1",
    ]


@settings(max_examples=200)
@given(
    st.integers(0, 400),
    st.integers(0, 2),
    st.integers(1, 9),
    st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 3)]),
)
def test_hop_budget_stays_within_rounding_allowance(dist, i, delta, eps):
    """hop_budget(d, i) * phi never exceeds eps*d + 2*eps*delta."""
    ps = derive_params(1, 0, 1, 1, eps, 3, delta, delta + 5, 10**30)
    assert ps.hop_budget(dist, i) * ps.phi <= eps * dist + 2 * eps * delta


def test_round_weight_sandwich_property():
    ps = derive_params(1, 0, 1, 1, Fraction(1, 3), 2, 5, 9, 10**9)
    for num in range(1, 120):
        w = Fraction(num, 7)
        k = ps.round_weight(w)
        assert w <= k * ps.phi <= w + ps.phi


# ---------------------------------------------------------------------------
# shortcut graph over a stub ball layer


class StubBalls:
    """Fixed-format stand-in for the ball layer: tables owner -> member -> est."""

    def __init__(self, initial):
        self._members = {u: dict(t) for u, t in initial.items()}

    def initial_membership(self):
        return {u: dict(t) for u, t in self._members.items()}

    def membership(self, u):
        table = self._members.get(u, {})
        return set(table), dict(table)

    def changeset(self, events):
        """Apply events to the stub state and return the change set."""
        for ev in events:
            table = self._members.setdefault(ev.owner, {})
            if ev.kind == "leave":
                del table[ev.member]
            else:
                table[ev.member] = ev.estimate
        return BallChangeSet(tuple(events))


def singleton_balls(graph):
    return StubBalls({u: {u: 0} for u in graph.node_ids()})


def path_graph(n, weight=1, w_max=8):
    return graph_from_edges(n, max(weight, w_max), [(i, i + 1, weight) for i in range(n - 1)])


def small_params(depth, *, delta=2, p=2, eps=1, n=256):
    return derive_params(1, 0, 1, 1, eps, p, delta, depth, n)


def feed(checks, record, ball_changes):
    """``shortcut_process_update`` on the checked shortcut graph, then its checks."""
    out = shortcut_process_update(checks.structure, record, ball_changes)
    checks.check()
    return out


def admitted(sg, key):
    """Whether the tree holds this key; every key names an endpoint as key[1]."""
    return sg.tree.has_edge(key, key[1])


def tree_weight(sg, key):
    """The rounded weight the tree holds for this key."""
    return sg.tree.adj[key[1]][key][1]


def test_without_shortcuts_levels_equal_scaled_baseline():
    graph = path_graph(6)
    ps = small_params(8)
    sg = ShortcutGraph(graph, singleton_balls(graph), ps, 0)
    # unit weights round to ceil(1 / (2/3)) = 2, so levels step by 2
    assert [sg.tree.level_of(v) for v in range(6)] == [0, 2, 4, 6, 8, 10]
    for v in range(6):
        d = v  # path distances
        assert d <= sg.query(v) <= d + 5 * ps.phi
    sg.check_sandwich()


def test_weight_cap_excludes_heavy_edges():
    # cap = depth + root_bound*delta = 4 + 32 = 36
    graph = graph_from_edges(3, 64, [(0, 1, 2), (1, 2, 64)])
    ps = small_params(4)
    assert ps.weight_cap == 36
    balls = StubBalls({0: {0: 0, 2: 50}, 1: {1: 0}, 2: {2: 0}})
    sg = ShortcutGraph(graph, balls, ps, 0)
    assert admitted(sg, ("G", 0, 1))
    assert not admitted(sg, ("G", 1, 2))
    assert not admitted(sg, ("F", 0, 2))
    assert sg.query(2) == inf


def test_deletion_without_distance_change_reports_nothing():
    graph = graph_from_edges(3, 4, [(0, 1, 1), (1, 2, 1), (0, 2, 4)])
    ps = small_params(8)
    checks = StructureChecks(ShortcutGraph(graph, singleton_balls(graph), ps, 0))
    rec = graph.apply_update(UpdateEvent("delete", 0, 2))
    assert feed(checks, rec, BallChangeSet(())) == []


def test_estimate_increase_below_grain_is_absorbed():
    graph = path_graph(3)
    ps = small_params(8)  # phi = 2/3
    balls = StubBalls({0: {0: 0, 2: 3}, 1: {1: 0}, 2: {2: 0}})
    checks = StructureChecks(ShortcutGraph(graph, balls, ps, 0))
    sg = checks.structure
    key = ("F", 0, 2)
    assert tree_weight(sg, key) == 5  # ceil(3 / (2/3))
    ops_before = sg.update_ops
    rec = graph.apply_update(UpdateEvent("increase", 1, 2, 2))
    changes = balls.changeset([BallEvent("est", 0, 2, Fraction(10, 3))])
    out = feed(checks, rec, changes)
    # ceil((10/3) / (2/3)) = 5: same scaled weight, so only the base edge
    # increase produced tree traffic
    assert tree_weight(sg, key) == 5
    assert sg.update_ops == ops_before + 1
    assert all(node != 0 for node, _ in out)


def test_rejoin_uses_fresh_generation_key():
    """A LEAVE deletes the pair's key, so a later JOIN starts a new lifetime
    under the same key; a JOIN while the key is present is refused."""
    graph = path_graph(4)
    ps = small_params(8)  # phi = 2/3
    balls = StubBalls({u: {u: 0} for u in range(4)})
    checks = StructureChecks(ShortcutGraph(graph, balls, ps, 0))
    sg = checks.structure
    base_edges = sg.edges_ever
    assert sg.query(3) == 4  # level 6 (three unit edges, each scaled to 2)

    # join at the current true distance: the insert leaves levels alone
    rec = graph.apply_update(UpdateEvent("increase", 2, 3, 2))
    out = feed(checks, rec, balls.changeset([BallEvent("join", 0, 3, 4)]))
    assert out == []
    assert tree_weight(sg, ("F", 0, 3)) == 6
    assert sg.query(3) == 4

    rec = graph.apply_update(UpdateEvent("increase", 1, 2, 2))
    feed(checks, rec, balls.changeset([BallEvent("leave", 0, 3)]))
    assert not admitted(sg, ("F", 0, 3))
    assert sg.query(3) == Fraction(16, 3)  # level 8 via the base path

    rec = graph.apply_update(UpdateEvent("increase", 0, 1, 2))
    feed(checks, rec, balls.changeset([BallEvent("join", 0, 3, 6)]))
    assert tree_weight(sg, ("F", 0, 3)) == 9
    assert sg.query(3) == 6
    assert sg.edges_ever == base_edges + 2

    rec = graph.apply_update(UpdateEvent("increase", 2, 3, 3))
    with pytest.raises(DuplicateEdgeError):
        feed(checks, rec, balls.changeset([BallEvent("join", 0, 3, 7)]))


def test_base_increase_absorption_and_cap_escape():
    graph = graph_from_edges(2, 64, [(0, 1, 2)])
    ps = small_params(4)  # phi=2/3, cap=36
    checks = StructureChecks(ShortcutGraph(graph, singleton_balls(graph), ps, 0))
    sg = checks.structure
    key = ("G", 0, 1)
    assert tree_weight(sg, key) == 3
    rec = graph.apply_update(UpdateEvent("increase", 0, 1, 37))
    out = feed(checks, rec, BallChangeSet(()))
    assert not admitted(sg, key)
    assert out == [(1, inf)]


def test_check_sandwich_reads_the_tree_weights():
    graph = path_graph(3)
    ps = small_params(8)  # phi = 2/3
    sg = ShortcutGraph(graph, singleton_balls(graph), ps, 0)
    sg.check_sandwich()
    key = ("G", 0, 1)
    # ceil(1 / (2/3)) = 2; two grains more puts phi * 4 above 1 + phi.
    sg.tree.increase_edge(key, 0, tree_weight(sg, key) + 2)
    sg.tree.end_batch()
    with pytest.raises(AssertionError, match="outside the sandwich"):
        sg.check_sandwich()


def run_checks(sg):
    sg.check_sandwich()
    sg.check_shortcut_mirror()


def test_checks_catch_a_tree_that_lost_a_live_shortcut():
    graph = path_graph(4)
    ps = small_params(8)
    sg = ShortcutGraph(graph, StubBalls({0: {0: 0, 3: 3}, 1: {1: 0}, 2: {2: 0}, 3: {3: 0}}),
                       ps, 0)
    run_checks(sg)
    key = ("F", 0, 3)
    assert admitted(sg, key)
    sg.tree.delete_edge(key, 0)
    sg.tree.end_batch()
    with pytest.raises(AssertionError, match="missing from the tree"):
        run_checks(sg)


def test_checks_catch_a_base_key_the_view_no_longer_holds():
    graph = path_graph(3)
    sg = ShortcutGraph(graph, singleton_balls(graph), small_params(8), 0)
    graph.apply_update(UpdateEvent("delete", 1, 2))  # the tree is never told
    with pytest.raises(AssertionError, match=r"\('G', 1, 2\)"):
        run_checks(sg)


# ---------------------------------------------------------------------------
# integration with the live ball layer


def build_pipeline(graph, *, p, delta, depth, seed, eps=1, root=0):
    assignment = sample_priorities(graph, p, 2.0, seed)
    balls = BallSystem(
        graph, assignment, EsTree, alpha=1, depth=depth, bucket_eps=1
    )
    params = derive_params(
        1, 0, 2, 1, eps, p, delta, depth, graph.node_count()
    )
    return balls, params, ShortcutGraph(graph, balls, params, root)


def drive(graph, balls, checks, event):
    """Apply ``event`` and feed its ball fallout to the checked shortcut graph."""
    rec = graph.apply_update(event)
    return feed(checks, rec, balls.process_update(rec))


def exact_distances(graph, root):
    return dijkstra_bounded(graph, root, inf)


def check_estimate_bounds(graph, params, sg, root):
    dist = exact_distances(graph, root)
    bound_hits = 0
    for v in graph.node_ids():
        d = dist.get(v, inf)
        est = sg.query(v)
        if d == inf:
            continue
        assert est >= d, (v, d, est)
        if d <= params.depth:
            limit = (params.alpha + 2 * params.eps) * d + params.gamma_total
            assert est <= limit, (v, d, est, limit)
            bound_hits += 1
    return bound_hits


def test_fifteen_node_estimates_dominate_distances():
    graph = random_graph(15, 32, 8, seed=5)
    balls, params, sg = build_pipeline(graph, p=2, delta=2, depth=20, seed=5)
    checks = StructureChecks(sg)
    rng = random.Random(99)
    check_estimate_bounds(graph, params, sg, 0)
    for _ in range(10):
        u, v, w = rng.choice(list(graph.edges()))
        if rng.random() < 0.5 and w < graph.max_weight:
            event = UpdateEvent("increase", u, v, rng.randint(w + 1, graph.max_weight))
        else:
            event = UpdateEvent("delete", u, v)
        drive(graph, balls, checks, event)
        check_estimate_bounds(graph, params, sg, 0)


def test_full_deletion_battery_forty_nodes():
    """Delete every edge of a seeded 40-node instance; check bounds per update."""
    for seed in (3, 11):
        graph = random_graph(40, 90, 8, seed=seed)
        balls, params, sg = build_pipeline(graph, p=2, delta=4, depth=40, seed=seed)
        checks = StructureChecks(sg)
        # Weight increases per tree key since its last insertion: a
        # shortcut key that left and rejoined starts a new lifetime.
        increases, counts = {}, []
        insert_edge, increase_edge = sg.tree.insert_edge, sg.tree.increase_edge

        def counted_insert(key, u, v, w):
            increases[key] = 0
            insert_edge(key, u, v, w)

        def counted_increase(key, u, w):
            increases[key] = increases.get(key, 0) + 1
            counts.append(increases[key])
            increase_edge(key, u, w)

        sg.tree.insert_edge, sg.tree.increase_edge = counted_insert, counted_increase
        rng = random.Random(seed * 7 + 1)
        prev_est = {v: sg.query(v) for v in graph.node_ids()}
        check_estimate_bounds(graph, params, sg, 0)
        while True:
            live = list(graph.edges())
            if not live:
                break
            u, v, _ = rng.choice(live)
            reported = dict(drive(graph, balls, checks, UpdateEvent("delete", u, v)))
            check_estimate_bounds(graph, params, sg, 0)
            # reported changes are exactly the estimate deltas, as ints
            # over the grain's denominator
            for node in graph.node_ids():
                est = sg.query(node)
                if est != prev_est[node]:
                    assert reported[node] == est * params.phi.denominator, (node, est)
                    assert reported[node] == sg.scaled_query(node)
                    prev_est[node] = est
                else:
                    assert node not in reported
        # everything deleted: only the root keeps a finite estimate
        for node in graph.node_ids():
            assert sg.query(node) == (0 if node == 0 else inf)
        # journal reconciliation: every tree operation is accounted for
        cap_rounded = params.round_weight(params.weight_cap)
        assert max(counts, default=0) <= cap_rounded
        assert sg.tree.work_counter + sg.tree.edge_scans <= 8 * (
            sg.edges_ever * params.level_cap + sg.update_ops
        )


def test_priority_refined_bound_on_frozen_seed():
    """Per-priority allowance: est <= (alpha+eps)*d + gamma_i + h(d, i)*phi."""
    graph = random_graph(30, 70, 6, seed=13)
    assignment = sample_priorities(graph, 2, 2.0, 13)
    balls = BallSystem(graph, assignment, EsTree, alpha=1, depth=30, bucket_eps=1)
    params = derive_params(1, 0, 2, 1, 1, 2, 3, 30, 30)
    sg = ShortcutGraph(graph, balls, params, 0)
    checks = StructureChecks(sg)
    rng = random.Random(170)
    for _ in range(40):
        live = list(graph.edges())
        if not live:
            break
        u, v, _ = rng.choice(live)
        drive(graph, balls, checks, UpdateEvent("delete", u, v))
        dist = exact_distances(graph, 0)
        for node in graph.node_ids():
            d = dist.get(node, inf)
            if d == inf or d > params.depth or node == 0:
                continue
            i = assignment.priority_of(node)
            if i >= params.p:
                i = params.p - 1
            allowance = (
                (params.alpha + params.eps) * d
                + params.gamma[i]
                + params.hop_budget(d, i) * params.phi
            )
            assert sg.query(node) <= allowance, (node, d, i)
