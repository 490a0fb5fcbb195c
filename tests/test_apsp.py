"""All-pairs query layer: witness heaps, the recursive query, stretch bounds.

Soundness is checked against per-update Dijkstra; heap contents are checked
against a brute-force minimum recomputed from the live ball memberships
(an independent replay of the same journal the heaps consume).
"""

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import inf
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

import decrsp.apsp
from decrsp.apsp import ApspState
from decrsp.balls import BallEvent
from decrsp.es_tree import EsTree
from decrsp.graph import (
    DynamicGraph,
    ParamConfigError,
    UpdateError,
    UpdateEvent,
    dijkstra_bounded,
)
from decrsp.harness import generate_instance
from decrsp.layered import FullRangeSssp

from test_graph_core import (
    InjectedFault,
    assert_poisoned,
    fault_in,
    random_graph,
    refuse_while_poisoned,
)


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


def test_update_with_no_ball_changes_leaves_heaps_alone(monkeypatch):
    g = DynamicGraph(6, 4)
    g.add_edge(0, 1, 2)
    g.add_edge(1, 2, 2)
    g.add_edge(0, 2, 4)  # ties the path through 1
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
    # Deleting the tied edge moves no ball, so every cached tail survives it.
    pairs = [(a, b) for a in g.node_ids() for b in g.node_ids()]
    for a, b in pairs:
        state.query(a, b)
    batches = []
    ball_update = state.balls.process_update
    monkeypatch.setattr(state.balls, "process_update",
                        lambda record: batches.append(ball_update(record)) or batches[-1])
    state.process_update(UpdateEvent("delete", 0, 2))
    assert batches[0].events == ()
    computed = state.stats()["tails_computed"]
    for a, b in pairs:
        state.query(a, b)
        assert state.last_query_expansions == 0
    assert state.stats()["tails_computed"] == computed


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
    # Tails are shared by queries and kept across updates; each answer must
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


# -- tails kept across updates ---------------------------------------------------


def sweep_against_reference(state, pairs, last):
    """Query every pair; each answer is the fresh recursion clamped to the last."""
    for u, v in pairs:
        want = max(reference_tail(state, u, v), last.get((u, v), 0))
        assert state.query(u, v) == want, (u, v)
        last[(u, v)] = want


def test_rejected_update_keeps_tails_and_a_fault_poisons_the_state():
    n, w_max = 20, 8
    g = random_graph(n, 40, w_max, seed=71)
    state = ApspState(g, 2, Fraction(1, 2), seed=4, c=0.3, debug=True)
    pairs = [(u, v) for u in g.node_ids() for v in g.node_ids()]
    last = {}
    sweep_against_reference(state, pairs, last)
    # One update first, so that the rejections below also see held floors.
    a, b, _ = next(iter(g.edges()))
    state.process_update(UpdateEvent("delete", a, b))
    sweep_against_reference(state, pairs[: len(pairs) // 2], last)
    assert any(state._held.values()) and any(state._served.values())

    def rows():
        return [{x: dict(row) for x, row in table.items()}
                for table in (state._tails, state._served, state._held)]

    before = rows()
    absent = next((a, b) for a in range(n) for b in range(a + 1, n) if not g.has_edge(a, b))
    a, b, w = next(iter(g.edges()))
    for bad in (UpdateEvent("delete", *absent), UpdateEvent("increase", a, b, w),
                UpdateEvent("increase", a, b, w_max + 1)):
        with pytest.raises(UpdateError):
            state.process_update(bad)
        assert rows() == before
    # The second fold of the next delete raises: the first has already moved
    # a ball, so the state is half applied.
    counters = state.stats()
    with fault_in(state.balls, "_fold_inner", at=2), pytest.raises(InjectedFault):
        state.process_update(UpdateEvent("delete", a, b))
    assert_state_poisoned(state, g, counters)


def assert_state_poisoned(state, graph, before):
    """Every pair query and every update raises ``UpdateError`` and the graph
    stays as it is.  The ball system and every table are gone; ``stats()``
    still answers, with 0 for every size and, for every counter, the value
    it had at the fault, at least that of ``before``, the ``stats()`` read
    before the failed update."""
    at_fault = state.stats()
    pairs = [(u, v) for u in graph.node_ids() for v in graph.node_ids()]
    assert_poisoned(graph, state.process_update, state.query, pairs)
    assert state.balls is None
    assert not any((state._keys, state._heaps, state._tails, state._served, state._held,
                    state._reads, state._readers))
    stats = state.stats()
    assert stats == at_fault
    assert stats["answers_served"] == stats["heap_pairs"] == stats["tails_cached"] == 0
    for counter in ("ball_rebuilds", "tails_computed", "tails_dropped"):
        assert stats[counter] >= before[counter]


def test_a_fault_on_the_benchmark_shape_poisons_the_state():
    # The apsp-sweep shape, every pair answered after each update; the second
    # fold of update 10 raises.  Nothing is served after that, and every later
    # update of the schedule is refused with the graph unchanged.
    schedule = generate_instance(24, 48, 8, "erdos-renyi", 1.0, 7001, increase_rate=0.3)
    g = schedule.build_graph()
    state = ApspState(g, 2, Fraction(1, 2), 7001, c=0.25)
    pairs = [(u, v) for u in g.node_ids() for v in g.node_ids()]
    updates = list(schedule.updates())
    for event in updates[:9]:
        state.process_update(event)
        [state.query(u, v) for u, v in pairs]
    counters = state.stats()
    assert counters["tails_computed"] > 0
    with fault_in(state.balls, "_fold_inner", at=2), pytest.raises(InjectedFault):
        state.process_update(updates[9])
    assert_state_poisoned(state, g, counters)
    for event in updates[10:]:
        refuse_while_poisoned(state.process_update, g, event)


def contract_tree(contract):
    """The exact tree inside an all-pairs contract: the contract itself when
    it is a bare ``EsTree``, the top band of a ``FullRangeSssp`` otherwise."""
    return contract.stacks[-1] if isinstance(contract, FullRangeSssp) else contract


def bench_shape_state(w_max):
    """The apsp-sweep shape (n = 24, 48 edges, k = 2, c = 0.25) with weights
    up to ``w_max``, after nine updates, each followed by a pair sweep."""
    schedule = generate_instance(24, 48, w_max, "erdos-renyi", 1.0, 7001, increase_rate=0.3)
    g = schedule.build_graph()
    state = ApspState(g, 2, Fraction(1, 2), 7001, c=0.25)
    updates = list(schedule.updates())
    for event in updates[:9]:
        state.process_update(event)
        [state.query(u, v) for u in g.node_ids() for v in g.node_ids()]
    return g, state, updates[9:]


@pytest.mark.parametrize("w_max", [8, 128])
def test_a_fault_in_a_set_watcher_tree_poisons_the_state(w_max):
    # The lowest set watcher's exact tree raises on the next delete.  Its
    # view is the whole graph, so every record reaches it.
    g, state, updates = bench_shape_state(w_max)
    watchers = state.balls._set_inst
    contract = watchers[min(watchers)]
    assert isinstance(contract, EsTree if w_max == 8 else FullRangeSssp)
    counters = state.stats()
    a, b, _ = sorted(g.edges())[0]
    with fault_in(contract_tree(contract), "process_update") as calls, \
            pytest.raises(InjectedFault):
        state.process_update(UpdateEvent("delete", a, b))
    assert len(calls) == 1
    assert_state_poisoned(state, g, counters)
    for event in updates:
        refuse_while_poisoned(state.process_update, g, event)


@pytest.mark.parametrize("w_max", [8, 128])
def test_a_fault_in_a_ball_inner_tree_poisons_the_state(w_max):
    # Delete edges in order, arming the inner tree of the first ball whose
    # scope holds the edge.  The tree is not called when that ball's scope
    # is rebuilt in the same update; the first delete that calls it raises.
    g, state, _ = bench_shape_state(w_max)
    balls = state.balls
    for a, b, _ in sorted(g.edges()):
        holders = sorted(balls._owners[a] & balls._owners[b])
        if not holders:
            continue
        contract = balls._inner[holders[0]]
        assert isinstance(contract, EsTree if w_max == 8 else FullRangeSssp)
        counters = state.stats()
        with fault_in(contract_tree(contract), "process_update") as calls:
            try:
                state.process_update(UpdateEvent("delete", a, b))
            except InjectedFault:
                break
        assert not calls
    assert len(calls) == 1
    assert_state_poisoned(state, g, counters)


# -- the contract factory -------------------------------------------------------


def all_contracts(state):
    balls = state.balls
    return list(balls._set_inst.values()) + [c for c in balls._inner.values() if c is not None]


@pytest.mark.parametrize("w_max, kinds", [(8, {EsTree}), (64, {EsTree, FullRangeSssp}),
                                          (128, {FullRangeSssp})])
def test_a_contract_is_a_bare_tree_exactly_when_every_band_is_fine(w_max, kinds):
    # On the bench shape (W = 8) every contract is a bare EsTree; at W = 128
    # every one is a FullRangeSssp, since each view has a band coarser than
    # the weights; at W = 64 it depends on the view's node count.  A bare
    # tree is exactly what a FullRangeSssp on the same view would hold: one
    # exact band with no mirror, at the same depth and with the same levels.
    schedule = generate_instance(24, 48, w_max, "erdos-renyi", 1.0, 7001, increase_rate=0.3)
    state = ApspState(schedule.build_graph(), 2, Fraction(1, 2), 7001, c=0.25)
    contracts = all_contracts(state)
    assert {type(c) for c in contracts} == kinds
    for contract in contracts:
        root = contract.root if isinstance(contract, EsTree) else contract.source
        full = FullRangeSssp(contract.view, root, state.eps_run)
        assert isinstance(contract, EsTree) == (full.mirrors == [None])
        if isinstance(contract, EsTree):
            assert contract.depth == full.stacks[0].depth
            assert contract.level == full.stacks[0].level


def test_every_contract_draws_one_seed_in_build_order(monkeypatch):
    # The factory draws a seed for every contract, a bare tree included, so
    # each FullRangeSssp gets the seed of its place in the build order, as
    # when every contract was one.  W = 64 mixes both kinds.
    built = []

    class RecordingTree(EsTree):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(None)

    class RecordingFull(FullRangeSssp):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(kwargs["seed"])

    monkeypatch.setattr(decrsp.apsp, "EsTree", RecordingTree)
    monkeypatch.setattr(decrsp.apsp, "FullRangeSssp", RecordingFull)
    schedule = generate_instance(24, 48, 64, "erdos-renyi", 1.0, 7001, increase_rate=0.3)
    state = ApspState(schedule.build_graph(), 2, Fraction(1, 2), 7001, c=0.25)
    for event in schedule.updates():
        state.process_update(event)
    assert None in built and sum(seed is not None for seed in built) > 1
    assert len(built) > len(all_contracts(state))  # scopes rebuilt in updates too
    for index, seed in enumerate(built):
        assert seed in (None, 7001 * 1_000_003 + 1 + index)


def test_pair_answers_on_a_wide_weight_range_are_unchanged():
    # W = 128: every contract is a FullRangeSssp.  The digest of a pair
    # sweep after each update was recorded when every contract was built as
    # a FullRangeSssp, before bare trees existed.
    schedule = generate_instance(16, 32, 128, "erdos-renyi", 1.0, 5, increase_rate=0.3)
    g = schedule.build_graph()
    state = ApspState(g, 2, Fraction(1, 2), 5, c=0.25)
    assert {type(c) for c in all_contracts(state)} == {FullRangeSssp}
    digest = hashlib.sha256()
    pairs = [(u, v) for u in g.node_ids() for v in g.node_ids()]
    for event in (None,) + tuple(schedule.updates()):
        if event is not None:
            state.process_update(event)
        for u, v in pairs:
            digest.update(("%d %d %s\n" % (u, v, state.query(u, v))).encode())
    assert digest.hexdigest() == (
        "8024729a14c779430d9c2981932f58b0922ac0392e8d6437837016f5b02a6504")


def test_a_tail_cached_by_recursion_is_served_on_its_first_query():
    # Query pairs until one's witness chain caches the tail of a pair that
    # has not been asked yet.  That pair's first query computes nothing and
    # returns the cached tail; a delete that drops the tail holds the answer
    # as the floor of the next one.
    g = random_graph(20, 40, 8, seed=73)
    state = ApspState(g, 2, Fraction(1, 2), seed=5, c=0.3, debug=True)
    asked = set()
    for u, v in [(u, v) for u in g.node_ids() for v in g.node_ids()]:
        state.query(u, v)
        asked.add((u, v))
        cached = [(x, v) for x in g.node_ids() if v in state._tails[x] and (x, v) not in asked]
        if cached:
            break
    x, v = cached[0]
    assert v not in state._served[x] and v not in state._held[x]
    tail = state._tails[x][v]
    assert tail == reference_tail(state, x, v)
    assert state.query(x, v) == tail
    assert state.last_query_expansions == 0
    assert state._served[x][v] == tail
    rng = random.Random(73)
    while v in state._tails[x]:
        a, b, _ = rng.choice(list(g.edges()))
        state.process_update(UpdateEvent("delete", a, b))
    assert v not in state._served[x] and state._held[x][v] == tail
    answer = state.query(x, v)
    assert answer == max(tail, reference_tail(state, x, v))
    assert v not in state._held[x] and state._served[x][v] == answer


AUDIT_PLANT = """
from fractions import Fraction
from decrsp.apsp import ApspState
from decrsp.graph import DynamicGraph, UpdateEvent
g = DynamicGraph(6, 4)
for u, v, w in [(0, 1, 2), (1, 2, 2), (3, 4, 1), (4, 5, 1), (3, 5, 1)]:
    g.add_edge(u, v, w)
state = ApspState(g, 2, Fraction(1, 2), seed=6, debug=True)
state.query(0, 2)
%s  # no update below touches the 0-1-2 side
try:
    state.process_update(UpdateEvent("delete", 3, 4))
except AssertionError as exc:
    print("audit:", exc)
"""


def run_audit_plant(plant):
    """Standard output lines of AUDIT_PLANT with ``plant`` run under ``python -O``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-O", "-c", AUDIT_PLANT % plant], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_debug_audit_catches_a_stale_tail_under_optimize():
    assert run_audit_plant("state._tails[0][2] += 1") == [
        "audit: cached tail (0, 2) is 5, recursion gives 4"]


def test_debug_audit_catches_a_served_answer_without_its_tail_under_optimize():
    assert run_audit_plant("del state._tails[0][2]") == [
        "audit: served answer (0, 2) has no cached tail"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stats_keys_are_fixed_and_counters_never_decrease(seed):
    g = random_graph(16, 32, 8, seed=80 + seed)
    state = ApspState(g, 2, Fraction(1, 2), seed=seed, c=0.3)
    rng = random.Random(seed)
    pairs = [(u, v) for u in g.node_ids() for v in g.node_ids()]
    prev = state.stats()
    assert set(prev) == {"answers_served", "ball_rebuilds", "heap_pairs", "tails_cached",
                         "tails_computed", "tails_dropped"}
    assert prev["heap_pairs"] == len(state._keys)
    while True:
        for u, v in pairs:
            state.query(u, v)
        stats = state.stats()
        assert set(stats) == set(prev)
        assert stats["answers_served"] == len(pairs) <= stats["tails_cached"]
        assert stats["tails_cached"] == len(pairs)
        assert stats["ball_rebuilds"] == sum(state.balls.rebuild_counts.values())
        for counter in ("ball_rebuilds", "tails_computed", "tails_dropped"):
            assert stats[counter] >= prev[counter]
        assert stats["tails_computed"] - stats["tails_dropped"] == stats["tails_cached"]
        prev = stats
        live = list(g.edges())
        if not live:
            break
        a, b, _ = rng.choice(live)
        state.process_update(UpdateEvent("delete", a, b))


def test_a_dropped_row_drops_the_tails_that_read_it(monkeypatch):
    # k = 3: only a priority-1 row has readers, the priority-0 tails whose
    # witness chain goes through it.  Deleting edge 1-4 moves the priority-2
    # top of such a node; its readers must go with its row.
    g = random_graph(8, 10, 4, seed=17)
    state = ApspState(g, 3, Fraction(1, 2), seed=17, c=0.4, debug=True)
    for u in range(8):
        for v in range(8):
            state.query(u, v)
    read_rows = []
    drop_tails = state._drop_tails

    def spy(stale, rows):
        read_rows.extend(x for x in rows if state.assignment.priority_of(x) == 1
                         and any((y, v) not in state._keys
                                 for y in state._readers[x] for v in state._tails[y]))
        drop_tails(stale, rows)

    monkeypatch.setattr(state, "_drop_tails", spy)
    state.process_update(UpdateEvent("delete", 1, 4))  # debug audits every tail
    assert read_rows
    for x, row in state._tails.items():
        for v, tail in row.items():
            assert tail == reference_tail(state, x, v), (x, v)


class ApspMachine(RuleBasedStateMachine):
    """Deletes, increases, rejected updates, shuffled query sweeps and
    injected faults on a small graph.  Until a fault fires, after every step
    each answer is the fresh witness-chain recursion clamped to the pair's
    previous answer, sound and in bound; once one has fired, every query and
    update raises ``UpdateError`` and the graph stays as it is."""

    EPS = Fraction(1, 2)

    @initialize(k=st.sampled_from([2, 3]), n=st.integers(8, 12), w_max=st.integers(1, 16),
                seed=st.integers(0, 1000))
    def build(self, k, n, w_max, seed):
        rng = random.Random(seed)
        self.graph = random_graph(n, rng.randint(n, 2 * n), w_max, seed=seed)
        self.state = ApspState(self.graph, k, self.EPS, seed=seed, c=0.4, debug=True)
        self.bound = (2 + self.EPS) ** k - 1
        self.pairs = [(u, v) for u in range(n) for v in range(n)]
        self.rng = rng
        self.last = {}
        self.updates = 0
        self.poisoned = False

    def pick(self, index, weight_below=None):
        edges = [e for e in self.graph.edges() if weight_below is None or e[2] < weight_below]
        return edges[index % len(edges)] if edges else None

    def apply(self, event):
        if self.poisoned:
            refuse_while_poisoned(self.state.process_update, self.graph, event)
            return
        self.state.process_update(event)
        self.updates += 1

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
            new = min(w + bump, self.graph.max_weight)
            self.apply(UpdateEvent("increase", u, v, new))

    @rule(index=st.integers(0, 10**6), kind=st.sampled_from(["absent", "same", "over"]))
    def rejected(self, index, kind):
        n = self.graph.n
        if kind == "absent":
            missing = [(a, b) for a in range(n) for b in range(a + 1, n)
                       if not self.graph.has_edge(a, b)]
            bad = UpdateEvent("delete", *missing[index % len(missing)])
        else:
            edge = self.pick(index)
            if edge is None:
                return
            u, v, w = edge
            bad = UpdateEvent("increase", u, v, w if kind == "same" else self.graph.max_weight + 1)
        tails = {x: dict(row) for x, row in self.state._tails.items()}
        with pytest.raises(UpdateError):
            self.state.process_update(bad)
        assert self.state._tails == tails

    @precondition(lambda self: self.updates >= 6 and not self.poisoned)
    @rule(index=st.integers(0, 10**6),
          site=st.sampled_from(["balls", "fold", "watcher", "inner"]))
    def fault(self, index, site):
        """A delete in which one structure inside the state raises once: the
        ball system on entry, its second fold of an inner change, the exact
        tree of a set watcher, or that of the inner instance of a ball whose
        scope holds the edge (``contract_tree``).  The state is poisoned if
        it raised."""
        edge = self.pick(index)
        if edge is None:
            return
        a, b, _ = edge
        balls = self.state.balls
        owner, name, at = balls, "process_update", 1
        if site == "fold":
            name, at = "_fold_inner", 2
        elif site == "watcher" and balls._set_inst:
            owner = contract_tree(balls._set_inst[min(balls._set_inst)])
        elif site == "inner":
            holders = sorted(balls._owners[a] & balls._owners[b])
            if holders:
                owner = contract_tree(balls._inner[holders[index % len(holders)]])
        self.counters = self.state.stats()
        with fault_in(owner, name, at) as calls:
            try:
                self.state.process_update(UpdateEvent("delete", a, b))
            except InjectedFault:
                self.poisoned = True
        assert self.poisoned == (len(calls) >= at)

    @rule(shuffle=st.randoms(use_true_random=False))
    def sweep(self, shuffle):
        # The invariant has just answered every pair, so all tails are cached.
        if self.poisoned:
            return
        pairs = list(self.pairs)
        shuffle.shuffle(pairs)
        for u, v in pairs:
            assert self.state.query(u, v) == self.last[(u, v)]
            assert self.state.last_query_expansions == 0

    @invariant()
    def answers_match_the_recursion(self):
        if self.poisoned:
            assert_state_poisoned(self.state, self.graph, self.counters)
            return
        self.rng.shuffle(self.pairs)
        dist = {u: dijkstra_bounded(self.graph, u, inf) for u in self.graph.node_ids()}
        for u, v in self.pairs:
            want = max(reference_tail(self.state, u, v), self.last.get((u, v), 0))
            est = self.state.query(u, v)
            assert est == want, (u, v)
            assert self.state.last_query_expansions <= self.state.k ** self.state.k
            d = dist[u].get(v, inf)
            assert est >= d
            assert est == d == inf or est <= self.bound * d
            self.last[(u, v)] = est


ApspMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=15, derandomize=True, deadline=None
)
test_apsp_state_machine = ApspMachine.TestCase
