"""Layered range-restricted SSSP and the full-range scaled assembly.

Frozen numeric expectations were computed by straight-line arithmetic
(integer cubes, bit lengths, ceilings) before the module under test
existed; oracle checks run bounded Dijkstra on the live graph after every
update.
"""

import random
from fractions import Fraction
from math import ceil, inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decrsp import hopset, layered
from decrsp.es_tree import EsTree
from decrsp.graph import DynamicGraph, ParamConfigError, UpdateEvent, dijkstra_bounded
from decrsp.hopset import integer_root_ceil
from decrsp.layered import (
    FullRangeSssp,
    LayerAssembly,
    ScaledMirror,
    StackPlan,
    default_layer_counts,
    layer_scales,
)

from test_graph_core import random_graph


def exact_distances(view, source):
    return dijkstra_bounded(view, source, inf)


def band_answer(band, node):
    """A band's estimate in its own graph's units: the integer it reports
    divided by its denominator (1 for an exact tree)."""
    value = band.query(node)
    den = band.denominator if band.mode == "layered" else 1
    return value if value == inf else Fraction(value, den)


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
    assert len(full.stacks) == 10  # (24 * 32).bit_length()
    assert calls == {"derive_params": 1, "layer_scales": 1}
    params = full.plan.params
    assert all(s.sg.params is params for s in full.stacks)
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
    # Under the p/q overrides every band keeps its own scaled mirror: one
    # band per bit of n*W.
    g = DynamicGraph(2, 4)
    g.add_edge(0, 1, 4)
    layered = FullRangeSssp(g, 0, Fraction(1, 2), p=2, q=3)
    assert len(layered.stacks) == 4  # (2*4).bit_length()
    assert all(m is not None for m in layered.mirrors)
    g2 = random_graph(30, 40, 4, seed=2)
    layered = FullRangeSssp(g2, 0, Fraction(1, 2), p=4, q=3)
    assert len(layered.stacks) == 7  # 120.bit_length()
    assert {s.mode for s in layered.stacks} == {"layered"}
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
def test_band_heaps_hold_one_entry_per_band_through_a_drain(options, seed):
    """Each node's heap keeps exactly one entry per band keyed by an int (or
    inf), every reported value is the least band answer, and unreported
    nodes keep their answer."""
    w_max = 8
    g = random_graph(18, 36, w_max, seed=seed)
    full = FullRangeSssp(g, 0, Fraction(1, 2), seed=seed, **options)
    bands = len(full.stacks)
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
        assert all(len(full._heaps[x]) == bands for x in g.node_ids())
        # Keys are ints over one common denominator in both modes.
        assert all(type(key) is int or key == inf
                   for x in g.node_ids() for key, _, _ in full._heaps[x])
        reported = dict(out)
        for x in g.node_ids():
            answers = [
                band_answer(band, x) * (1 if mirror is None else mirror.phi)
                for band, mirror in zip(full.stacks, full.mirrors)
            ]
            if x in reported:
                assert reported[x] == min(answers) != snapshot[x]
            assert full.query(x) == reported.get(x, snapshot[x])
            snapshot[x] = full.query(x)
