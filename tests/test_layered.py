"""Layered range-restricted SSSP and the full-range scaled assembly.

Frozen numeric expectations were computed by straight-line arithmetic
(integer cubes, bit lengths, ceilings) before the module under test
existed; oracle checks run bounded Dijkstra on the live graph after every
update.
"""

import random
import re
from fractions import Fraction
from math import ceil, inf

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

from decrsp import hopset, layered
from decrsp.es_tree import EsTree
from decrsp.graph import (
    DynamicGraph,
    GraphFormatError,
    ParamConfigError,
    UpdateError,
    UpdateEvent,
    dijkstra_bounded,
)
from decrsp.hopset import integer_root_ceil
from decrsp.layered import (
    FullRangeSssp,
    LayerAssembly,
    ScaledMirror,
    StackPlan,
    band_layout,
    default_layer_counts,
    exact_band_depth,
    layer_scales,
)

from test_graph_core import (
    InjectedFault,
    assert_poisoned,
    assert_retired_bands_hold_the_source_alone,
    fault_in,
    random_graph,
    refuse_while_poisoned,
)


def exact_distances(view, source):
    return dijkstra_bounded(view, source, inf)


def band_answer(band, node):
    """A band's estimate in its own graph's units: the integer it reports
    divided by its denominator (1 for an exact tree)."""
    value = band.query(node)
    den = band.denominator if band.mode == "layered" else 1
    return value if value == inf else Fraction(value, den)


def least_band_answer(full, node):
    """The least answer over the built bands, in true distance."""
    return min(band_answer(band, node) * (1 if mirror is None else mirror.phi)
               for band, mirror in zip(full.stacks, full.mirrors))


def delete_all_edges(graph, rng):
    """Yield change records for a full random-order deletion schedule."""
    while True:
        live = list(graph.edges())
        if not live:
            return
        u, v, _ = rng.choice(live)
        yield graph.apply_update(UpdateEvent("delete", u, v))


# -- layer counts and scales --------------------------------------------------


def test_default_layer_counts_collapse_at_desk_scale():
    # 179^3 = 5_735_339 < 2400^2 = 5_760_000 <= 180^3 = 5_832_000 and the
    # float formulas give p=1,q=1 at a million nodes: every realistic size
    # lands in the exact-fallback regime.
    assert default_layer_counts(10**6, Fraction(1, 2)) == (1, 1)
    assert default_layer_counts(100, Fraction(1, 2)) == (0, 0)
    assert default_layer_counts(3, Fraction(1, 2)) == (0, 0)
    # log2(eps) comes from its numerator and denominator, so an eps below
    # the float range still gives counts instead of dividing by zero.
    assert default_layer_counts(100, Fraction(1, 10**400)) == (0, 0)


def test_layered_stack_rejects_eps_whose_weights_pass_the_float_range():
    g = random_graph(6, 8, 7, seed=1)
    with pytest.raises(ParamConfigError, match="float range"):
        FullRangeSssp(g, 0, Fraction(1, 10**400), p=2, q=3)


def test_layer_scales_frozen_values():
    # q=3 over R=2400: delta_1 from 13^3=2197 < 2400 <= 14^3=2744 and
    # depth_0 from 179^3 < 2400^2 <= 180^3; the top depth equals R itself.
    assert layer_scales(2400, 3) == [(1, 180), (14, 2400)]
    # R=960: 9^3=729 < 960 <= 10^3=1000 and 97^3=912_673 < 960^2=921_600
    # <= 98^3=941_192.
    assert layer_scales(960, 3) == [(1, 98), (10, 960)]


def test_top_layer_depth_is_ceiling_of_range():
    for rng_bound in (Fraction(2400), Fraction(961, 2), Fraction(100, 3)):
        scales = layer_scales(rng_bound, 3)
        assert scales[-1][1] == ceil(rng_bound)


@settings(max_examples=150)
@given(
    num=st.integers(min_value=1, max_value=10**7),
    den=st.integers(min_value=1, max_value=997),
    q=st.integers(min_value=1, max_value=5),
)
def test_fraction_root_ceil_is_tight(num, den, q):
    # layer_scales takes q-th roots of rational ranges through integer_root_ceil.
    value = Fraction(num, den)
    x = integer_root_ceil(value, q)
    assert x >= 1 and x**q >= value
    if x > 1:
        assert (x - 1) ** q < value


# -- configuration validation -------------------------------------------------


def test_layered_mode_requires_two_priorities():
    g = random_graph(12, 20, 4, seed=1)
    with pytest.raises(ParamConfigError, match="p >= 2"):
        StackPlan(g.node_count(), 50, Fraction(1, 2), q=3, p=1)


def test_range_must_cover_node_count():
    g = random_graph(12, 20, 4, seed=1)
    with pytest.raises(ParamConfigError, match="node count"):
        StackPlan(g.node_count(), 11, Fraction(1, 2))


def test_scale_ladder_guard_rejects_tight_configs():
    # n=18 with p=2 gives witness bound ceil(sqrt(18))=5 and q=3 over R=80
    # gives delta_1=5 (4^3=64 < 80 <= 5^3=125) against depth_0=19
    # (18^3=5832 < 6400 <= 19^3=6859): 25 > 19.
    g = random_graph(18, 36, 4, seed=7)
    with pytest.raises(ParamConfigError, match="too tight"):
        StackPlan(g.node_count(), 80, Fraction(1, 2), p=2, q=3)


def test_more_than_one_shortcut_layer_is_a_config_error():
    g = random_graph(24, 48, 8, seed=1)
    for q in (4, 5):
        with pytest.raises(ParamConfigError, match="q=%d unsupported" % q):
            StackPlan(g.node_count(), 96, Fraction(1, 2), p=3, q=q)
        with pytest.raises(ParamConfigError, match="q=%d unsupported" % q):
            FullRangeSssp(g, 0, Fraction(1, 2), p=3, q=q)


def test_eps_validation():
    g = random_graph(12, 20, 4, seed=1)
    with pytest.raises(ParamConfigError, match="eps"):
        StackPlan(g.node_count(), 50, Fraction(3, 2))
    with pytest.raises(ParamConfigError, match="eps"):
        FullRangeSssp(g, 0, 0)


# -- exact fallback mode ------------------------------------------------------


def test_fallback_mode_is_exact_under_deletions():
    g = random_graph(20, 40, 4, seed=3)
    plan = StackPlan(g.node_count(), 60, Fraction(1, 2))  # defaults: q=0
    assert plan.mode == "exact" and plan.denominator == 1
    tree = EsTree(g, 0, ceil(plan.range_bound))
    assert tree.mode == "exact"
    rng = random.Random(5)
    for rec in delete_all_edges(g, rng):
        tree.process_update(rec)
        dist = exact_distances(g, 0)
        for v in g.node_ids():
            d = dist.get(v, inf)
            assert tree.query(v) == (d if d <= 60 else inf)


# -- layered mode against the oracle ------------------------------------------


def build_small_assembly(seed, *, debug=False):
    g = random_graph(18, 36, 4, seed=7)
    plan = StackPlan(g.node_count(), 80, Fraction(1, 2), p=4, q=3)
    assembly = LayerAssembly(g, 0, plan, c=2.0, seed=seed, debug=debug)
    return g, plan, assembly


def test_layered_frozen_configuration():
    g, plan, assembly = build_small_assembly(seed=1)
    assert plan.mode == assembly.mode == "layered"
    # 18^3=5832 < 80^2=6400 <= 19^3=6859 and 4^3=64 < 80 <= 5^3=125.
    assert plan.scales == ((1, 19), (5, 80))
    assert plan.eps_prime == Fraction(1, 4)


def test_layered_stack_tracks_oracle_through_full_deletion():
    g, _, assembly = build_small_assembly(seed=1, debug=True)
    eps = Fraction(1, 2)
    rng = random.Random(3)
    steps = 0
    for rec in delete_all_edges(g, rng):
        assembly.process_update(rec)
        dist = exact_distances(g, 0)
        for v in g.node_ids():
            d = dist.get(v, inf)
            est = band_answer(assembly, v)
            assert est >= d
            if d <= 80:
                assert est <= (1 + eps) * d
        steps += 1
    assert steps == 36
    assert all(assembly.query(v) == inf for v in g.node_ids() if v != 0)
    assert assembly.query(0) == 0


def test_layer_zero_gives_exact_values_at_short_range():
    # The composite estimate is a min over layers, layer 0 is exact to its
    # depth, and no layer ever underestimates: short distances are exact.
    g, plan, assembly = build_small_assembly(seed=2)
    base_depth = plan.scales[0][1]
    rng = random.Random(11)
    for step, rec in enumerate(delete_all_edges(g, rng)):
        assembly.process_update(rec)
        if step >= 12:
            break
        dist = exact_distances(g, 0)
        for v in g.node_ids():
            d = dist.get(v, inf)
            if d <= base_depth:
                assert band_answer(assembly, v) == d


def test_stack_emissions_match_estimate_changes():
    g, _, assembly = build_small_assembly(seed=3)
    snapshot = {v: assembly.query(v) for v in g.node_ids()}
    rng = random.Random(17)
    for rec in delete_all_edges(g, rng):
        out = assembly.process_update(rec)
        assert out == sorted(out)
        fresh = {v: assembly.query(v) for v in g.node_ids()}
        expected = [(v, fresh[v]) for v in sorted(fresh) if fresh[v] != snapshot[v]]
        assert out == expected
        for v, value in out:
            assert value > snapshot[v]
        snapshot = fresh


# -- scaled mirrors -----------------------------------------------------------


def test_scaled_mirror_rounds_and_absorbs():
    g = DynamicGraph(3, 8)
    g.add_edge(0, 1, 3)
    g.add_edge(1, 2, 5)
    mirror = ScaledMirror(g, Fraction(2))
    assert mirror.weight(0, 1) == 2  # ceil(3/2)
    assert mirror.weight(1, 2) == 3  # ceil(5/2)
    assert mirror.max_weight == 4  # ceil(8/2)
    rec = g.apply_update(UpdateEvent("increase", 0, 1, 4))
    assert mirror.translate(rec) is None  # ceil(4/2) == ceil(3/2)
    assert mirror.weight(0, 1) == 2
    rec = g.apply_update(UpdateEvent("increase", 0, 1, 5))
    out = mirror.translate(rec)
    assert out is not None and mirror.weight(0, 1) == 3
    rec = g.apply_update(UpdateEvent("delete", 1, 2))
    assert mirror.translate(rec) is not None
    assert not mirror.has_edge(1, 2)


def test_scaled_mirror_sandwich_property():
    g = random_graph(15, 30, 8, seed=9)
    phi = Fraction(5, 3)
    mirror = ScaledMirror(g, phi)
    for u, v, w in g.edges():
        scaled = mirror.weight(u, v)
        assert w <= phi * scaled < w + phi


# -- full-range assembly ------------------------------------------------------


def test_single_edge_graph_query_is_exact():
    for w in (4, 32):
        g = DynamicGraph(2, w)
        g.add_edge(0, 1, w)
        full = FullRangeSssp(g, 0, Fraction(1, 2))
        assert full.query(0) == 0
        assert full.query(1) == w


def test_layered_bands_share_one_parameter_plan(monkeypatch):
    calls = {"derive_params": 0, "layer_scales": 0}

    def counted(name):
        original = getattr(layered, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(layered, name, wrapper)

    counted("derive_params")
    counted("layer_scales")
    g = random_graph(24, 48, 32, seed=5)
    full = FullRangeSssp(g, 0, Fraction(1, 2), p=4, q=3, seed=1)
    assert full.stats()["band_count"] == 10  # (24 * 32).bit_length()
    for rec in delete_all_edges(g, random.Random(1)):
        full.process_update(rec)
    # Bands built inside an update take the same plan.
    assert full.stats()["bands_built_late"] > 0
    assert calls == {"derive_params": 1, "layer_scales": 1}
    params = full.plan.params
    assert full.stacks[0].mode == "exact"
    assert all(s.sg.params is params for s in full.stacks[1:])
    # eps' = 1/12, delta = 9 and p = 4 give the grain 3/20 on every band.
    assert params.phi == Fraction(3, 20) and full.plan.scales == ((1, 70), (9, 576))


def test_a_failing_parameter_identity_raises_at_build(monkeypatch):
    identity = hopset._identity

    def gamma_fails(holds, what):
        identity(holds and not what.startswith("gamma[p-1]"), what)

    monkeypatch.setattr(hopset, "_identity", gamma_fails)
    g = random_graph(16, 32, 4, seed=3)
    with pytest.raises(AssertionError, match=r"parameter identity fails: gamma\[p-1\]"):
        FullRangeSssp(g, 0, Fraction(1, 2), p=4, q=3)
    with pytest.raises(AssertionError, match="parameter identity fails"):
        StackPlan(g.node_count(), 64, Fraction(1, 2), p=4, q=3)
    FullRangeSssp(g, 0, Fraction(1, 2))  # exact trees derive no parameters


def test_band_count_matches_distance_range():
    # Under the p/q overrides there is one band per bit of n*W, and each
    # built band keeps its own scaled mirror: the sentinel on the top
    # band's, then the run of assemblies from band 0 up.
    g = DynamicGraph(2, 4)
    g.add_edge(0, 1, 4)
    layered = FullRangeSssp(g, 0, Fraction(1, 2), p=2, q=3)
    assert layered.stats()["band_count"] == 4  # (2*4).bit_length()
    assert all(m is not None for m in layered.mirrors)
    g2 = random_graph(30, 40, 4, seed=2)
    layered = FullRangeSssp(g2, 0, Fraction(1, 2), p=4, q=3)
    assert layered.stats()["band_count"] == 7  # 120.bit_length()
    built = len(layered.stacks)
    assert 2 <= built < 7
    assert [s.mode for s in layered.stacks] == ["exact"] + ["layered"] * (built - 1)
    grain = Fraction(1, 6) / 30
    assert [m.phi for m in layered.mirrors] == [grain * 2**6] + [
        grain * 2**i for i in range(built - 1)]
    # Default mode: phi_i = 2^i / (6n), so 2^i <= 12 (n=2) and 2^i <= 180
    # (n=30) hold for every band, and all of them collapse into one exact band.
    assert len(FullRangeSssp(g, 0, Fraction(1, 2)).stacks) == 1
    assert len(FullRangeSssp(g2, 0, Fraction(1, 2)).stacks) == 1
    # n=20, W=1024: 20480.bit_length() = 15 bands and 2^i <= 120 for i <= 6,
    # so one exact band replaces seven and eight scaled bands remain.
    g3 = random_graph(20, 40, 1024, seed=2)
    assert len(FullRangeSssp(g3, 0, Fraction(1, 2)).stacks) == 1 + 8


@settings(max_examples=300)
@given(
    n=st.integers(min_value=1, max_value=500),
    i=st.integers(min_value=0, max_value=40),
    eps=st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)]),
    w=st.integers(min_value=0, max_value=10**6),
)
def test_integer_scale_matches_fraction_ceiling(n, i, eps, w):
    grain = eps / 3 / n  # A/B in lowest terms; A > 1 for eps = 2/3, 3/4
    phi = grain * 2**i
    mirror = ScaledMirror(DynamicGraph(1, 1), phi)
    assert mirror.scale(w) == ceil(Fraction(w) / phi)
    assert -(-w * grain.denominator // (grain.numerator << i)) == ceil(Fraction(w) / phi)


def test_band_layout_counts_the_fine_bands():
    # The fine bands are those with phi_i = (eps/3) * 2^i / n <= 1, counted
    # here one grain at a time.  The exact band is the whole instance when
    # they are all of the bands; the default plan is exact at these n.
    for n in range(1, 40):
        for w_max in (1, 2, 7, 42, 43, 64, 100, 1024):
            for eps in (Fraction(1, 14), Fraction(3, 7), Fraction(1, 2), Fraction(1)):
                grain, bands, fine, depth = band_layout(n, w_max, eps)
                grains = [eps / 3 * 2**i / n for i in range(bands)]
                assert grain == grains[0] and bands == max(1, (n * w_max).bit_length())
                assert fine == sum(phi <= 1 for phi in grains)
                assert depth == (4 * 2 ** (fine - 1) if fine else None)
                depth = exact_band_depth(n, w_max, eps)
                assert depth == (4 << (bands - 1) if fine == bands else None)


@pytest.mark.parametrize(
    "n, m, w_max, eps, seed",
    [(20, 40, 1024, Fraction(1, 2), 3), (21, 50, 512, Fraction(2, 3), 4),
     (16, 30, 256, Fraction(3, 4), 5), (18, 36, 64, Fraction(1), 6)],
)
def test_default_mode_has_one_exact_band_below_unit_grain(n, m, w_max, eps, seed):
    g = random_graph(n, m, w_max, seed=seed)
    full = FullRangeSssp(g, 0, eps, seed=1, debug=True)
    bands = (n * w_max).bit_length()
    grains = [eps / 3 * 2**i / n for i in range(bands)]
    i_star = max(i for i, phi in enumerate(grains) if phi <= 1)
    assert full.mirrors[0] is None and full.stacks[0].mode == "exact"
    assert full.stacks[0].depth == 4 << i_star
    assert [mirror.phi for mirror in full.mirrors[1:]] == grains[i_star + 1:]
    assert all(stack.mode == "exact" for stack in full.stacks)
    rng = random.Random(seed)
    exact_answers = approximate_answers = 0
    while True:
        live = list(g.edges())
        if not live:
            break
        u, v, w = rng.choice(live)
        if w < w_max and rng.random() < 0.3:
            event = UpdateEvent("increase", u, v, rng.randint(w + 1, w_max))
        else:
            event = UpdateEvent("delete", u, v)
        full.apply_event(event)
        dist = exact_distances(g, 0)
        for x in g.node_ids():
            d = dist.get(x, inf)
            before = full.heap_reads
            est = full.query(x)
            assert full.heap_reads == before + 1
            # The heap top is the least band answer.
            answers = [
                band_answer(band, x) * (1 if mirror is None else mirror.phi)
                for band, mirror in zip(full.stacks, full.mirrors)
            ]
            assert est == min(answers)
            if d <= 4 << i_star:
                assert est == d and type(est) is int
                exact_answers += 1
            else:
                assert d <= est <= (1 + eps) * d
                approximate_answers += d != inf
    assert exact_answers and approximate_answers


def test_source_outside_view_is_a_config_error():
    g = random_graph(4, 4, 4, seed=1)
    with pytest.raises(ParamConfigError, match="source"):
        FullRangeSssp(g, 9, Fraction(1, 2))


def test_query_of_an_unknown_node_is_a_config_error():
    g = random_graph(4, 4, 4, seed=1)
    full = FullRangeSssp(g, 0, Fraction(1, 2))
    for bad in (9, [1], {}):  # absent, then unhashable
        with pytest.raises(ParamConfigError, match="node %s" % re.escape(repr(bad))):
            full.query(bad)
    assert full.heap_reads == 0  # a failed lookup reads no heap
    assert full.query(1) == dijkstra_bounded(g, 0, inf)[1]
    assert full.heap_reads == 1
    # Ids are dict keys: True and 1.0 read node 1.
    assert full.query(True) == full.query(1.0) == full.query(1)


@pytest.mark.parametrize("options", [{}, {"p": 4, "q": 3}], ids=["exact", "layered"])
def test_a_failure_inside_an_update_poisons_the_instance(options, monkeypatch):
    """A rejected event poisons nothing.  A band that raises after the graph
    changed leaves the instance half applied: from then on every query and
    every update raises ``UpdateError``, and the graph is left alone."""
    g = random_graph(24, 48, 32, seed=4)
    full = FullRangeSssp(g, 0, Fraction(1, 2), seed=4, **options)
    answers = {v: full.query(v) for v in g.node_ids()}
    missing = next((u, v) for u in range(24) for v in range(u + 1, 24) if not g.has_edge(u, v))
    with pytest.raises(UpdateError):
        full.apply_event(UpdateEvent("delete", *missing))
    assert {v: full.query(v) for v in g.node_ids()} == answers
    band = full.stacks[-1]
    original, failed = band.process_update, []

    def fail_once(record):
        if not failed:
            failed.append(record)
            raise RuntimeError("injected band fault")
        return original(record)

    monkeypatch.setattr(band, "process_update", fail_once)
    (u, v, _), (x, y, _) = sorted(g.edges())[:2]
    before = full.stats()
    with pytest.raises(RuntimeError, match="injected band fault"):
        full.apply_event(UpdateEvent("delete", u, v))
    # Nothing can be served again, so the bands are gone; their work stays
    # in stats(), which no refused call below moves.
    assert not any((full.stacks, full.mirrors, full._units, full._keys, full._answers))
    at_fault = full.stats()
    assert at_fault.keys() == before.keys()
    assert all(at_fault[key] >= before[key] for key in before)
    assert at_fault["es_edge_scans"] > 0
    reads = full.heap_reads
    for node in g.node_ids():
        with pytest.raises(UpdateError, match="poisoned"):
            full.query(node)
    assert full.heap_reads == reads
    edges = sorted(g.edges())
    with pytest.raises(UpdateError, match="poisoned"):
        full.apply_event(UpdateEvent("delete", x, y))
    assert sorted(g.edges()) == edges
    with pytest.raises(UpdateError, match="poisoned"):
        full.process_update(g.apply_update(UpdateEvent("delete", x, y)))
    assert len(failed) == 1
    assert full.stats() == at_fault


def test_full_range_tracks_oracle_with_mixed_updates():
    n, w_max = 30, 4
    g = random_graph(n, 60, w_max, seed=11)
    eps = Fraction(1, 2)
    full = FullRangeSssp(g, 0, eps, p=4, q=3, seed=2)
    rng = random.Random(9)
    steps = 0
    while True:
        live = list(g.edges())
        if not live:
            break
        u, v, w = rng.choice(live)
        if w < w_max and rng.random() < 0.25:
            event = UpdateEvent("increase", u, v, rng.randint(w + 1, w_max))
        else:
            event = UpdateEvent("delete", u, v)
        full.apply_event(event)
        dist = exact_distances(g, 0)
        for v2 in g.node_ids():
            d = dist.get(v2, inf)
            est = full.query(v2)
            assert d <= est <= (1 + eps) * d
        steps += 1
    assert steps > 60
    assert all(full.query(v) == inf for v in g.node_ids() if v != 0)


def test_full_range_query_is_one_heap_read():
    g = random_graph(16, 28, 4, seed=8)
    full = FullRangeSssp(g, 0, Fraction(1, 2), p=4, q=3, seed=1)
    before = full.heap_reads
    values = [full.query(v) for v in g.node_ids()]
    assert full.heap_reads == before + g.node_count()
    # brute-force the same minima over the per-band estimates
    for v, got in zip(g.node_ids(), values):
        bands = [
            band_answer(band, v) * mirror.phi
            for band, mirror in zip(full.stacks, full.mirrors)
            if band.query(v) != inf
        ]
        want = min(bands) if bands else inf
        assert got == want


def test_full_range_emissions_and_monotonicity():
    g = random_graph(18, 30, 4, seed=4)
    full = FullRangeSssp(g, 0, Fraction(1, 2), p=4, q=3, seed=1, debug=True)
    snapshot = {v: full.query(v) for v in g.node_ids()}
    rng = random.Random(6)
    while True:
        live = list(g.edges())
        if not live:
            break
        u, v, _ = rng.choice(live)
        out = full.apply_event(UpdateEvent("delete", u, v))
        assert out == sorted(out)
        fresh = {v2: full.query(v2) for v2 in g.node_ids()}
        expected = [
            (v2, fresh[v2]) for v2 in sorted(fresh) if fresh[v2] != snapshot[v2]
        ]
        assert out == expected
        for v2, value in out:
            assert value > snapshot[v2]
        snapshot = fresh


def test_update_outside_source_component_emits_nothing():
    g = DynamicGraph(5, 4)
    g.add_edge(0, 1, 2)
    g.add_edge(1, 2, 2)
    g.add_edge(3, 4, 3)
    full = FullRangeSssp(g, 0, Fraction(1, 2))
    assert full.query(3) == inf
    assert full.apply_event(UpdateEvent("delete", 3, 4)) == []


def test_full_range_rebuild_reproduces_identical_stream():
    def run():
        g = random_graph(16, 28, 4, seed=5)
        full = FullRangeSssp(g, 0, Fraction(1, 2), p=4, q=3, seed=7)
        rng = random.Random(13)
        log = []
        while True:
            live = list(g.edges())
            if not live:
                break
            u, v, _ = rng.choice(live)
            out = full.apply_event(UpdateEvent("delete", u, v))
            log.append((u, v, tuple(out)))
        tail = tuple(sorted((v, full.query(v)) for v in g.node_ids()))
        return repr((log, tail))

    assert run() == run()


@pytest.mark.parametrize(
    "options",
    [{}, {"p": 4, "q": 3}, {"debug": True}],
    ids=["default", "p4q3", "debug"],
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_answers_are_clamped_least_band_answers_through_a_drain(options, seed):
    """Every reported answer is the larger of the node's previous answer and
    its least band answer, and differs from the previous one; unreported
    nodes keep their answer, and every stored key is an int (or inf)."""
    w_max = 8
    g = random_graph(18, 36, w_max, seed=seed)
    full = FullRangeSssp(g, 0, Fraction(1, 2), seed=seed, **options)
    rng = random.Random(seed)
    snapshot = {v: full.query(v) for v in g.node_ids()}
    while True:
        live = list(g.edges())
        if not live:
            break
        u, v, w = rng.choice(live)
        if w < w_max and rng.random() < 0.3:
            event = UpdateEvent("increase", u, v, rng.randint(w + 1, w_max))
        else:
            event = UpdateEvent("delete", u, v)
        out = full.apply_event(event)
        # Keys are ints over one common denominator in both modes.
        assert all(type(key) is int or key == inf for key in full._keys.values())
        reported = dict(out)
        for x in g.node_ids():
            if x in reported:
                assert reported[x] == max(snapshot[x], least_band_answer(full, x)) != snapshot[x]
            assert full.query(x) == reported.get(x, snapshot[x])
            snapshot[x] = full.query(x)


class LayeredMachine(RuleBasedStateMachine):
    """Deletes, increases, rejected updates, queries and an injected fault on
    a small graph, driving a layered ``FullRangeSssp``: a sentinel tree and
    a run of ``LayerAssembly`` bands that grows inside updates.  Until the
    fault, after every step the answers stay between the true distance and
    1 + eps times it, never fall and cost one read each, and each answer is
    the larger of the previous one and the least band answer; the sentinel
    and every built band's lower tree hold the from-scratch bounded Dijkstra
    levels on their mirrors, and every built mirror holds exactly the
    current graph's edges, scaled; the run stays in band order below
    ``_next_band``, and a band leaves it only once it holds the source
    alone.  After it, every query and update raises
    ``UpdateError`` and the graph stays as it is.  ``late_examples`` counts
    the examples in which a band was built late."""

    late_examples = 0

    @initialize(n=st.integers(8, 12), w_max=st.integers(1, 16), p=st.sampled_from([2, 3]),
                eps=st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1)]),
                seed=st.integers(0, 1000))
    def build(self, n, w_max, p, eps, seed):
        rng = random.Random(seed)
        self.graph = random_graph(n, rng.randint(n - 1, 2 * n), w_max, seed)
        self.full = FullRangeSssp(self.graph, rng.randrange(n), eps, p=p, q=3, seed=seed,
                                  debug=True)
        modes = [band.mode for band in self.full.stacks]
        assert modes == ["exact"] + ["layered"] * (len(modes) - 1)
        self.queries = 0
        self.updates = 0
        self.forced = 0  # bands built by ``build_band_late``
        self.poisoned = False
        self.bands = list(self.full.stacks)
        self.answers = self.read_answers()

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
        changes = self.full.apply_event(event)
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
        """A delete in which one band, the sentinel or an assembly, raises;
        every band takes a delete, so the fault always fires."""
        edge = self.pick(index)
        if edge is None:
            return
        stacks = self.full.stacks
        with fault_in(stacks[band % len(stacks)], "process_update"), \
                pytest.raises(InjectedFault):
            self.apply(UpdateEvent("delete", edge[0], edge[1]))
        self.poisoned = True

    @precondition(lambda self: self.updates >= 6 and not self.poisoned)
    @rule()
    def build_band_late(self):
        """Build the next band above the run now, as an update does for a
        node that only the sentinel holds, and settle every node against it,
        as an update that touched them all would.  The fresh band may
        undercut an answer of the older bands; the clamp keeps every answer."""
        full = self.full
        if full._next_band == full.stats()["band_count"] - 1:
            return
        full._add_band(full._next_band, layered=True)
        self.forced += 1
        assert not any([full._settle(v) for v in self.graph.node_ids()])

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
    def bands_are_exact_and_answers_in_bound(self):
        if self.poisoned:
            nodes = [(v,) for v in self.graph.node_ids()]
            assert_poisoned(self.graph, self.full.apply_event, self.full.query, nodes)
            assert self.full.heap_reads == self.queries
            return
        assert_retired_bands_hold_the_source_alone(self.full, self.bands)
        self.bands = list(self.full.stacks)
        indices = run_band_indices(self.full)
        assert indices == sorted(set(indices)) and all(i < self.full._next_band for i in indices)
        live = sorted(self.graph.edges())
        for mirror, band in zip(self.full.mirrors, self.full.stacks):
            assert sorted(mirror.edges()) == [(u, v, mirror.scale(w)) for u, v, w in live]
            tree = band if band.mode == "exact" else band.lower
            assert tree.level == dijkstra_bounded(mirror, tree.root, tree.depth)
        answers = self.read_answers()
        assert self.full.heap_reads == self.queries
        dist = dijkstra_bounded(self.graph, self.full.source, inf)
        bound = 1 + self.full.eps
        for v, est in answers.items():
            assert est == max(self.answers[v], least_band_answer(self.full, v))
            d = dist.get(v, inf)
            assert est == d == inf or d <= est <= bound * d
        self.answers = answers

    def teardown(self):
        if self.full.stats()["bands_built_late"] > self.forced:
            LayeredMachine.late_examples += 1


class test_layered_state_machine(LayeredMachine.TestCase):  # named as the suite knows it
    settings = settings(max_examples=40, stateful_step_count=20, derandomize=True,
                        deadline=None)

    def runTest(self):
        LayeredMachine.late_examples = 0
        super().runTest()
        assert LayeredMachine.late_examples > 0, "no example built a band late"


def test_layered_drain_builds_bands_late_under_debug_checks():
    """A full drain at n = 48 under ``debug=True``: every update checks every
    answer against Dijkstra, the run of bands grows inside updates, no
    answer falls, and the clamp to the previous answer binds: some update
    leaves a node's least band answer below its answer."""
    g = random_graph(48, 96, 16, seed=21)
    full = FullRangeSssp(g, 0, Fraction(1, 2), p=4, q=3, seed=3, debug=True)
    built = full.stats()["bands_built"]
    assert built < full.stats()["band_count"]
    answers = {v: full.query(v) for v in g.node_ids()}
    clamped = 0
    for rec in delete_all_edges(g, random.Random(21)):
        full.process_update(rec)
        for v, before in answers.items():
            answers[v] = full.query(v)
            assert answers[v] >= before
            clamped += least_band_answer(full, v) < answers[v]
    assert clamped > 0
    stats = full.stats()
    assert stats["bands_built_late"] >= 1
    assert stats["bands_built"] == built + stats["bands_built_late"]
    assert stats["bands_built"] - stats["bands_retired"] == len(full.stacks)
    assert stats["bands_built"] <= stats["band_count"]


def run_band_indices(full):
    """The band index of each ``LayerAssembly`` in a layered instance's
    ``stacks``, read from its mirror's grain against the sentinel's."""
    top = full.stats()["band_count"] - 1
    return [top + 1 - (full.mirrors[0].phi / mirror.phi).numerator.bit_length()
            for mirror in full.mirrors[1:]]


def test_retiring_bands_moves_no_answer_in_a_drain_that_builds_bands_late():
    """A full drain at n = 24 that retires bands and then builds bands late,
    with no hypothesis draw behind it.  Beside it runs a twin instance that
    never retires a band: after every update both report the same changes
    and answers, and the work counters agree, as a retired band would have
    done no more work.  The run stays in band order, and each band built
    late is the next one above it, however many bands below were retired.
    The bands built late are retired in turn, and at the end only the
    sentinel is left."""
    g, twin_graph = random_graph(24, 48, 32, seed=5), random_graph(24, 48, 32, seed=5)
    full = FullRangeSssp(g, 0, Fraction(1, 2), p=4, q=3, seed=5, debug=True)
    twin = FullRangeSssp(twin_graph, 0, Fraction(1, 2), p=4, q=3, seed=5)
    twin._retire = lambda dead: None
    grew, retired, late = [], [], []
    for step, rec in enumerate(delete_all_edges(g, random.Random(5))):
        before = full.stats()
        bands, next_band = list(full.stacks), full._next_band
        out = full.process_update(rec)
        assert out == twin.apply_event(UpdateEvent("delete", rec.u, rec.v))
        after = full.stats()
        indices = run_band_indices(full)
        assert indices == sorted(set(indices))
        fresh = [i for i, band in zip(indices, full.stacks[1:])
                 if all(band is not b for b in bands)]
        assert fresh == list(range(next_band, full._next_band))
        if fresh:
            grew.append(step)
            late += [band for band in full.stacks if all(band is not b for b in bands)]
        if after["bands_retired"] > before["bands_retired"]:
            retired.append(step)
        assert_retired_bands_hold_the_source_alone(full, bands)
        assert {v: full.query(v) for v in g.node_ids()} == {
            v: twin.query(v) for v in g.node_ids()}
        for key in ("es_edge_scans", "monotone_heap_ops"):
            assert after[key] == twin.stats()[key]
    assert grew == [11, 19] and retired[0] < grew[0] < retired[-1]
    assert late and all(band is not live for band in late for live in full.stacks)
    stats = full.stats()
    assert stats["bands_built"] - stats["bands_retired"] == len(full.stacks) == 1
    assert full.stacks[0].mode == "exact"


@pytest.mark.parametrize("options", [{}, {"p": 4, "q": 3}], ids=["exact", "layered"])
def test_stats_keys_are_fixed_and_counters_never_decrease(options):
    keys = None
    for seed in (1, 2, 3):
        w_max = 32
        g = random_graph(24, 48, w_max, seed=seed)
        full = FullRangeSssp(g, 0, Fraction(1, 2), seed=seed, **options)
        rng = random.Random(seed)
        last = full.stats()
        keys = keys or set(last)
        while True:
            live = list(g.edges())
            if not live:
                break
            u, v, w = rng.choice(live)
            if w < w_max and rng.random() < 0.3:
                event = UpdateEvent("increase", u, v, rng.randint(w + 1, w_max))
            else:
                event = UpdateEvent("delete", u, v)
            full.apply_event(event)
            full.query(rng.randrange(24))
            stats = full.stats()
            assert set(stats) == keys
            assert all(stats[k] >= last[k] for k in keys)
            last = stats
        assert last["heap_reads"] > 0
        assert last["bands_built"] - last["bands_retired"] == len(full.stacks)
        assert last["es_edge_scans"] > 0
        assert (last["monotone_heap_ops"] > 0) == (full.plan.mode == "layered")
        # A full drain leaves every band but the top one holding the source alone.
        assert last["bands_retired"] > 0 or full.plan.mode != "layered"
    assert keys == {"band_count", "bands_built", "bands_built_late", "bands_retired",
                    "heap_reads", "es_edge_scans", "monotone_heap_ops"}
