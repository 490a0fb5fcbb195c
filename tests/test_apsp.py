"""All-pairs query layer: witness heaps, the recursive query, stretch bounds.

Soundness is checked against per-update Dijkstra; heap contents are checked
against a brute-force minimum recomputed from the live ball memberships
(an independent replay of the same journal the heaps consume).
"""

import random
from fractions import Fraction
from math import inf

import pytest

from decrsp.apsp import ApspState
from decrsp.balls import BallEvent
from decrsp.graph import (
    DynamicGraph,
    ParamConfigError,
    UpdateError,
    UpdateEvent,
    dijkstra_bounded,
)

from test_graph_core import random_graph


def check_all_pairs(state, graph, bound):
    """Assert soundness and stretch for every pair; returns worst stretch."""
    worst = Fraction(0)
    for u in graph.node_ids():
        dist = dijkstra_bounded(graph, u, inf)
        for v in graph.node_ids():
            d = dist.get(v, inf)
            est = state.query(u, v)
            assert state.last_query_expansions <= state.k**state.k
            if d == inf:
                assert est == inf
                continue
            assert est >= d
            if d > 0:
                assert est <= bound * d, (u, v, d, est)
                worst = max(worst, Fraction(est) / d)
            else:
                assert est == 0
    return worst


def brute_force_witnesses(state, graph):
    """Minimum (estimate, owner) per (member, priority) from live memberships."""
    best = {}
    for owner in graph.node_ids():
        j = state.assignment.priority_of(owner)
        members, ests = state.balls.membership(owner)
        for member in members:
            cur = best.get((member, j))
            cand = (ests[member], owner)
            if cur is None or cand < cur:
                best[(member, j)] = cand
    return best


def reference_tail(state, x, v):
    """The witness-chain recursion from scratch: no tail table, no clamp."""
    direct = state.balls.estimate(x, v)
    if direct != inf:
        return direct
    best = inf
    for j in range(state.assignment.priority_of(x) + 1, state.k):
        top = state.witness(x, j)
        if top is not None:
            owner, leg = top
            best = min(best, leg + reference_tail(state, owner, v))
    return best


# -- parameters ---------------------------------------------------------------


def test_parameter_validation():
    g = random_graph(16, 24, 4, seed=1)
    with pytest.raises(ValueError, match="eps"):
        ApspState(g, 2, Fraction(3, 2), seed=1)
    with pytest.raises(ValueError, match="priority levels"):
        ApspState(g, 1, Fraction(1, 2), seed=1)
    with pytest.raises(ValueError, match="priority levels"):
        ApspState(g, 9, Fraction(1, 2), seed=1)


def test_query_outside_the_graph_is_a_config_error():
    g = random_graph(16, 24, 4, seed=1)
    state = ApspState(g, 2, Fraction(1, 2), seed=1)
    with pytest.raises(ParamConfigError, match="node 16"):
        state.query(0, 16)
    with pytest.raises(ParamConfigError, match="node -1"):
        state.query(-1, 0)


@pytest.mark.parametrize("bad", [[1], True, 1.5, "x"], ids=["list", "bool", "float", "str"])
def test_query_rejects_node_ids_that_are_not_ints(bad):
    # True == 1 and hashes like it, so only a type check keeps (0, True)
    # from reading the (0, 1) answer; a list is unhashable.
    g = random_graph(16, 24, 4, seed=1)
    state = ApspState(g, 2, Fraction(1, 2), seed=1)
    for answered in (False, True):
        if answered:
            state.query(0, 1)
        for pair in ((0, bad), (bad, 0)):
            with pytest.raises(ParamConfigError, match="ints"):
                state.query(*pair)


def test_tiny_eps_is_rejected_before_the_bucket_loop():
    # eps/7 = 1/7000 needs about 37k buckets over n*W = 192.
    g = random_graph(24, 48, 8, seed=1)
    with pytest.raises(ParamConfigError, match="4096 buckets"):
        ApspState(g, 2, Fraction(1, 1000), seed=1, c=0.25)


def test_internal_error_is_one_seventh():
    g = random_graph(16, 24, 4, seed=1)
    state = ApspState(g, 2, Fraction(1, 2), seed=1)
    assert state.eps_run == Fraction(1, 14)


# -- degenerate graphs --------------------------------------------------------


def test_query_self_is_zero():
    g = random_graph(16, 24, 4, seed=2)
    state = ApspState(g, 2, Fraction(1, 2), seed=3)
    for v in g.node_ids():
        assert state.query(v, v) == 0


def test_edgeless_graph_has_singleton_balls_and_no_witnesses():
    g = DynamicGraph(10, 4)
    state = ApspState(g, 2, Fraction(1, 2), seed=4)
    for v in g.node_ids():
        members, ests = state.balls.membership(v)
        assert members == {v} and ests == {v: 0}
        assert state.witness(v, 0) == (v, 0)  # every priority is 0 here
        assert state.witness(v, 1) is None
        for u in g.node_ids():
            assert state.query(u, v) == (0 if u == v else inf)


# -- witness heap mechanics ---------------------------------------------------


def test_ingest_mechanics_on_synthetic_journal():
    # Heap behavior in isolation: estimates here are synthetic keys, not
    # distances, so only the (member, priority)->minimum bookkeeping is
    # under test.  An edgeless graph pins every priority to 0.
    g = DynamicGraph(10, 4)
    state = ApspState(g, 2, Fraction(1, 2), seed=4, debug=True)
    state._ingest([BallEvent("join", 3, 5, 4)])
    assert state.witness(5, 0) == (5, 0)  # the self pair still wins
    state._ingest([BallEvent("join", 7, 5, 2)])
    assert state.witness(5, 0) == (5, 0)
    state._ingest([BallEvent("leave", 5, 5)])
    assert state.witness(5, 0) == (7, 2)  # removal recomputes the minimum
    state._ingest([BallEvent("est", 7, 5, 9)])
    assert state.witness(5, 0) == (3, 4)  # key update demotes the old top
    state._ingest([BallEvent("join", 1, 5, 4)])
    assert state.witness(5, 0) == (1, 4)  # ties break toward the smaller id


def test_update_with_no_ball_changes_leaves_heaps_alone():
    g = DynamicGraph(6, 4)
    g.add_edge(0, 1, 2)
    g.add_edge(1, 2, 3)
    g.add_edge(3, 4, 1)
    g.add_edge(4, 5, 1)
    g.add_edge(3, 5, 1)
    state = ApspState(g, 2, Fraction(1, 2), seed=6, debug=True)
    before_keys = dict(state._keys)
    before_heaps = {v: [list(h) for h in hs] for v, hs in state._heaps.items()}
    # Deleting one edge of the 3-4-5 triangle changes no distance in it and
    # nothing at all on the 0-1-2 side.
    state.process_update(UpdateEvent("delete", 3, 4))
    dist = dijkstra_bounded(g, 3, inf)
    assert dist[4] == 2  # detour via 5
    # Estimates may legitimately rise on the triangle side; the other
    # component's heaps must be byte-identical.
    for v in (0, 1, 2):
        assert state._heaps[v] == before_heaps[v]
    assert all(
        state._keys[(o, m)] == est
        for (o, m), est in before_keys.items()
        if o in (0, 1, 2) and m in (0, 1, 2)
    )


def test_queries_are_read_only():
    g = random_graph(20, 40, 4, seed=7)
    state = ApspState(g, 2, Fraction(1, 2), seed=8, c=0.25)
    snapshot = {v: [tuple(h) for h in hs] for v, hs in state._heaps.items()}
    keys = dict(state._keys)
    for u in g.node_ids():
        for v in g.node_ids():
            state.query(u, v)
    assert keys == state._keys
    assert snapshot == {v: [tuple(h) for h in hs] for v, hs in state._heaps.items()}


# -- journal/heap bisimulation -------------------------------------------------


def test_witness_heaps_match_membership_minima_through_schedule():
    g = random_graph(20, 40, 4, seed=9)
    state = ApspState(g, 2, Fraction(1, 2), seed=10, c=0.25, debug=True)
    rng = random.Random(3)
    while True:
        live = list(g.edges())
        if not live:
            break
        u, v, _ = rng.choice(live)
        state.process_update(UpdateEvent("delete", u, v))
        best = brute_force_witnesses(state, g)
        for v2 in g.node_ids():
            for j in range(state.k):
                want = best.get((v2, j))
                got = state.witness(v2, j)
                assert got == (None if want is None else (want[1], want[0]))


# -- stretch batteries ----------------------------------------------------------


def test_stretch_battery_two_priorities_full_deletion():
    n, m, w_max, k = 40, 80, 4, 2
    eps = Fraction(1, 2)
    bound = (2 + eps) ** k - 1
    assert bound == Fraction(21, 4)  # 5.25
    g = random_graph(n, m, w_max, seed=21)
    state = ApspState(g, k, eps, seed=5, c=0.25)
    # The sparse sampling must leave a real top-priority set so the
    # witness-chain branch is actually exercised.
    assert 0 < len(state.assignment.level_sets[1]) < n
    chain_answers = 0
    worst = check_all_pairs(state, g, bound)
    rng = random.Random(8)
    step = 0
    while True:
        live = list(g.edges())
        if not live:
            break
        u, v, _ = rng.choice(live)
        state.process_update(UpdateEvent("delete", u, v))
        if step % 4 == 0:
            worst = max(worst, check_all_pairs(state, g, bound))
            chain_answers += sum(
                1
                for a in g.node_ids()
                for b in g.node_ids()
                if state.balls.estimate(a, b) == inf
                and state.query(a, b) != inf
            )
        step += 1
    assert step == m
    assert worst <= bound
    assert chain_answers > 0
    assert all(state.query(0, v) == inf for v in g.node_ids() if v != 0)


def test_stretch_battery_three_priorities():
    n, m, w_max, k = 30, 60, 4, 3
    eps = Fraction(1, 2)
    bound = (2 + eps) ** k - 1  # 14.625
    g = random_graph(n, m, w_max, seed=23)
    state = ApspState(g, k, eps, seed=6, c=0.4)
    worst = check_all_pairs(state, g, bound)
    rng = random.Random(12)
    for step in range(15):
        live = list(g.edges())
        if not live:
            break
        u, v, _ = rng.choice(live)
        state.process_update(UpdateEvent("delete", u, v))
        worst = max(worst, check_all_pairs(state, g, bound))
    assert worst <= bound


def test_identically_seeded_states_agree():
    def run():
        g = random_graph(18, 30, 4, seed=14)
        state = ApspState(g, 2, Fraction(1, 2), seed=9, c=0.3)
        rng = random.Random(4)
        log = []
        for _ in range(12):
            live = list(g.edges())
            if not live:
                break
            u, v, _ = rng.choice(live)
            state.process_update(UpdateEvent("delete", u, v))
            log.append([state.query(0, v2) for v2 in g.node_ids()])
        return repr(log)

    assert run() == run()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pair_answers_never_decrease_through_full_drain(seed):
    # A fresh witness chain can come out cheaper than an earlier one; the
    # answers handed out must still only grow, and stay within the bounds.
    n, m, w_max, k = 24, 48, 8, 2
    eps = Fraction(1, 2)
    bound = (2 + eps) ** k - 1
    g = random_graph(n, m, w_max, seed=40 + seed)
    state = ApspState(g, k, eps, seed=seed, c=0.25)
    rng = random.Random(seed)
    last = {}
    while True:
        for u in g.node_ids():
            dist = dijkstra_bounded(g, u, inf)
            for v in g.node_ids():
                est = state.query(u, v)
                d = dist.get(v, inf)
                assert d <= est <= bound * d or est == d == inf
                assert est >= last.get((u, v), 0), (u, v, last[(u, v)], est)
                last[(u, v)] = est
        live = list(g.edges())
        if not live:
            break
        a, b, w = rng.choice(live)
        if w < w_max and rng.random() < 0.3:
            state.process_update(UpdateEvent("increase", a, b, rng.randint(w + 1, w_max)))
        else:
            state.process_update(UpdateEvent("delete", a, b))


@pytest.mark.parametrize("k, seed", [(2, 1), (2, 2), (3, 3)])
def test_shared_tails_equal_a_fresh_recomputation(k, seed):
    # Tails are shared by every query between two updates; each answer must
    # still be exactly what a fresh walk of the witness chains gives, clamped
    # to the pair's previous answer, in any query order.
    n, m, w_max = 20, 40, 8
    g = random_graph(n, m, w_max, seed=60 + seed)
    state = ApspState(g, k, Fraction(1, 2), seed=seed, c=0.3, debug=True)
    rng = random.Random(seed)
    pairs = [(u, v) for u in g.node_ids() for v in g.node_ids()]
    last = {}

    def sweep():
        for repeat in range(2):
            rng.shuffle(pairs)
            for u, v in pairs:
                want = max(reference_tail(state, u, v), last.get((u, v), 0))
                assert state.query(u, v) == want, (u, v)
                assert state.last_query_expansions <= k**k
                if repeat:
                    assert state.last_query_expansions == 0
                last[(u, v)] = want

    sweep()
    step = 0
    while True:
        live = list(g.edges())
        if not live:
            break
        if step == 3:
            absent = next((a, b) for a in range(n) for b in range(a + 1, n)
                          if not g.has_edge(a, b))
            with pytest.raises(UpdateError):
                state.process_update(UpdateEvent("delete", *absent))
            sweep()
        a, b, w = rng.choice(live)
        if w < w_max and rng.random() < 0.3:
            state.process_update(UpdateEvent("increase", a, b, rng.randint(w + 1, w_max)))
        else:
            state.process_update(UpdateEvent("delete", a, b))
        sweep()
        step += 1
