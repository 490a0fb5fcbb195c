"""Graph core: parsing, update application, views, bounded Dijkstra."""

import io
import os
import random
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from math import inf
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decrsp.graph
from decrsp.apsp import ApspState
from decrsp.es_tree import EsTree
from decrsp.graph import (
    MAX_NODES,
    ArtificialSourceView,
    DynamicGraph,
    GraphFormatError,
    InducedSnapshot,
    ParamConfigError,
    QueryProbe,
    UpdateError,
    UpdateEvent,
    dijkstra_bounded,
    load_graph,
    parse_update_stream,
)
from decrsp.layered import FullRangeSssp
from decrsp.oracle import bellman_ford, dijkstra


def graph_from_edges(n, w_max, edges):
    g = DynamicGraph(n, w_max)
    for u, v, w in edges:
        g.add_edge(u, v, w)
    return g


def random_graph(n, m, w_max, seed):
    rng = random.Random(seed)
    pairs = rng.sample([(u, v) for u in range(n) for v in range(u + 1, n)], m)
    return graph_from_edges(n, w_max, [(u, v, rng.randint(1, w_max)) for u, v in pairs])


class InjectedFault(Exception):
    """Raised by a method that ``fault_in`` armed."""


@contextmanager
def fault_in(owner, name, at=1):
    """Make the method ``owner.name`` raise ``InjectedFault`` on its
    ``at``-th call inside the block; yields the list of calls' arguments."""
    method, calls = getattr(owner, name), []

    def failing(*args):
        calls.append(args)
        if len(calls) == at:
            raise InjectedFault(name)
        return method(*args)

    setattr(owner, name, failing)
    try:
        yield calls
    finally:
        delattr(owner, name)


def refuse_while_poisoned(update, graph, event):
    """``update(event)`` raises the poisoned ``UpdateError`` and leaves the
    graph as it is."""
    edges = sorted(graph.edges())
    with pytest.raises(UpdateError, match="poisoned"):
        update(event)
    assert sorted(graph.edges()) == edges


def assert_retired_bands_hold_the_source_alone(full, before):
    """Every band of ``before`` that has left ``full.stacks`` is at inf for
    every node but the source, and the live bands are those built and not
    retired.  A band that has left takes no further update, so what it holds
    now is what it held when it left."""
    stats = full.stats()
    assert stats["bands_built"] - stats["bands_retired"] == len(full.stacks)
    for band in before:
        if all(band is not live for live in full.stacks):
            assert [v for v in full.view.node_ids() if band.query(v) != inf] == [full.source]


def assert_poisoned(graph, update, query, queries):
    """``query(*args)`` raises the poisoned ``UpdateError`` for every ``args``
    in ``queries``, and so does ``update`` on the deletion of a live edge and
    on that of a missing one, leaving the graph as it is."""
    for args in queries:
        with pytest.raises(UpdateError, match="poisoned"):
            query(*args)
    n = graph.n
    live = [(a, b) for a, b, _ in graph.edges()][:1]
    missing = [(a, b) for a in range(n) for b in range(a + 1, n) if not graph.has_edge(a, b)]
    for a, b in live + missing[:1]:
        refuse_while_poisoned(update, graph, UpdateEvent("delete", a, b))


# -- parsing -----------------------------------------------------------------


def test_load_graph_basic():
    text = "# a comment\n3 2 10\n0 1 4\n\n1 2 7  # trailing comment\n"
    g = load_graph(io.StringIO(text))
    assert (g.n, g.edge_count, g.max_weight) == (3, 2, 10)
    assert dict(g.neighbors(0)) == {1: 4} and dict(g.neighbors(2)) == {1: 7}
    assert list(g.edges()) == [(0, 1, 4), (1, 2, 7)]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        ("3 1 5\n0 1 9", "weight"),
        ("3 1 5\n0 0 2", "self-loop"),
        ("3 2 5\n0 1 2\n1 0 3", "duplicate"),
        ("3 2 5\n0 1 2", "announced"),
        ("3 1 5\n0 7 2", "outside"),
        ("x y z\n", "non-integer"),
    ],
)
def test_load_graph_errors(text, fragment):
    with pytest.raises(GraphFormatError) as exc:
        load_graph(io.StringIO(text))
    assert fragment in str(exc.value)


@pytest.mark.parametrize("n", [2**20 + 1, 10**18], ids=["cap-plus-one", "ten-to-the-18"])
def test_a_header_above_the_node_cap_is_rejected_before_the_graph_is_built(monkeypatch, n):
    # The stub stands in for the graph that such a header would build.
    def no_graph(n, max_weight):
        raise AssertionError("DynamicGraph(%d) built" % n)

    monkeypatch.setattr(decrsp.graph, "DynamicGraph", no_graph)
    assert MAX_NODES == 2**20
    with pytest.raises(GraphFormatError,
                       match="^line 2: n=%d above the node cap 1048576$" % n):
        load_graph(io.StringIO("# header\n%d 0 1\n" % n))


def test_graph_constructor_rejects_bad_sizes():
    with pytest.raises(GraphFormatError, match="n >= 0"):
        DynamicGraph(-1, 4)
    with pytest.raises(GraphFormatError, match="max_weight >= 1"):
        DynamicGraph(4, 0)


def traced(build):
    """``build()`` and the bytes its result holds, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        kept = build()
        return kept, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def one_edge_instance(n, max_weight):
    graph = DynamicGraph(n, max_weight)
    graph.add_edge(0, 1, max_weight)
    return FullRangeSssp(graph, 0, 1)


def test_node_sets_are_held_once():
    # A graph's ids are range(n), and a scaled mirror answers its node reads
    # from its view.  With a copied node set in each, an empty graph at
    # n = 2^20 holds 75 MB, and the instance below, with fifteen mirrors,
    # 10 MB.
    graph, held = traced(lambda: DynamicGraph(2**20))
    assert graph.node_ids() == range(2**20) and graph.node_count() == 2**20
    assert held < 1_000_000
    n = 2**13
    full, held = traced(lambda: one_edge_instance(n, 2**16))
    assert held < 2_000_000
    assert len(full.mirrors) == 16 and full.mirrors[0] is None
    for mirror in full.mirrors[1:]:
        assert mirror.node_ids() == range(n) and mirror.node_count() == n
        assert mirror.has_node(n - 1) and not mirror.has_node(n)


def test_parse_update_stream():
    text = "D 0 1\nI 2 3 9\n# note\nQ 4 5\n"
    events = parse_update_stream(io.StringIO(text))
    assert events == [
        UpdateEvent("delete", 0, 1),
        UpdateEvent("increase", 2, 3, 9),
        QueryProbe(4, 5),
    ]
    with pytest.raises(GraphFormatError):
        parse_update_stream(io.StringIO("D 0\n"))
    with pytest.raises(GraphFormatError):
        parse_update_stream(io.StringIO("I 0 1\n"))


def test_the_grammar_takes_tabs_crlf_and_a_minus_sign():
    g = load_graph(io.StringIO("3\t2  5\r\n\t0 1\t2 \r\n\r\n1 2 3# note\r\n"))
    assert list(g.edges()) == [(0, 1, 2), (1, 2, 3)]
    assert parse_update_stream(io.StringIO("D\t0 1\r\n  I 0 1 -4 \r\n")) == [
        UpdateEvent("delete", 0, 1), UpdateEvent("increase", 0, 1, -4)]


# Integers that int() reads (as 3, 3, 10 and 3) but the grammar does not:
# an integer is ASCII digits after an optional minus sign.
OFF_GRAMMAR_INTEGERS = {"arabic-indic-digit": "\u0663", "plus-sign": "+3",
                        "digit-separator": "1_0", "fullwidth-digit": "\uff13"}


@pytest.mark.parametrize("token", list(OFF_GRAMMAR_INTEGERS.values()),
                         ids=list(OFF_GRAMMAR_INTEGERS))
def test_an_integer_is_ascii_digits_after_an_optional_minus(token):
    with pytest.raises(GraphFormatError, match="^line 1: non-integer header field$"):
        load_graph(io.StringIO("%s 0 5\n" % token))
    with pytest.raises(GraphFormatError, match="^line 2: non-integer edge field$"):
        load_graph(io.StringIO("12 1 12\n1 2 %s\n" % token))
    with pytest.raises(GraphFormatError, match="^line 1: malformed update "):
        parse_update_stream(io.StringIO("Q 0 %s\n" % token))


# Whitespace that str.split() separates fields at, but the grammar does not.
OFF_GRAMMAR_SEPARATORS = {"no-break-space": "\u00a0", "vertical-tab": "\v",
                          "form-feed": "\f", "ideographic-space": "\u3000"}


@pytest.mark.parametrize("sep", list(OFF_GRAMMAR_SEPARATORS.values()),
                         ids=list(OFF_GRAMMAR_SEPARATORS))
def test_fields_are_separated_by_spaces_and_tabs_only(sep):
    with pytest.raises(GraphFormatError, match="^line 2: edge must be 'u v w'$"):
        load_graph(io.StringIO("3 1 5\n0%s1 2\n" % sep))
    with pytest.raises(GraphFormatError, match="^line 1: malformed update "):
        parse_update_stream(io.StringIO("D 0%s1\n" % sep))


# -- updates -----------------------------------------------------------------


def test_apply_update_contract():
    g = graph_from_edges(4, 10, [(0, 1, 3), (1, 2, 5)])
    rec = g.apply_update(UpdateEvent("increase", 0, 1, 7))
    assert (rec.kind, rec.old_weight, rec.new_weight) == ("increase", 3, 7)
    assert dict(g.neighbors(1)) == {0: 7, 2: 5}
    rec = g.apply_update(UpdateEvent("delete", 2, 1))
    assert (rec.kind, rec.old_weight, rec.new_weight) == ("delete", 5, None)
    assert not g.has_edge(1, 2) and g.edge_count == 1

    with pytest.raises(UpdateError):
        g.apply_update(UpdateEvent("delete", 1, 2))  # already gone
    with pytest.raises(UpdateError):
        g.apply_update(UpdateEvent("increase", 0, 1, 7))  # not strictly larger
    with pytest.raises(UpdateError):
        g.apply_update(UpdateEvent("increase", 0, 1, 99))  # above weight bound


@pytest.mark.parametrize("event", [UpdateEvent("delete", 1, 8), UpdateEvent("increase", 9, 0, 3),
                                   UpdateEvent("delete", -1, 2)], ids=["v", "u", "negative"])
def test_an_update_naming_a_node_outside_the_graph_is_rejected_and_poisons_nothing(event):
    bad = event.v if event.u == 1 else event.u
    message = "^node id %d outside \\[0, 4\\)$" % bad
    graph = graph_from_edges(4, 5, [(0, 1, 2), (1, 2, 3), (2, 3, 5)])
    with pytest.raises(UpdateError, match=message):
        graph.apply_update(event)
    assert list(graph.edges()) == [(0, 1, 2), (1, 2, 3), (2, 3, 5)]
    sssp = FullRangeSssp(graph, 0, Fraction(1, 2))
    with pytest.raises(UpdateError, match=message):
        sssp.apply_event(event)
    assert sssp.apply_event(UpdateEvent("delete", 1, 2)) == [(2, inf), (3, inf)]
    assert sssp.query(1) == 2
    apsp = ApspState(graph_from_edges(4, 5, [(0, 1, 2), (1, 2, 3), (2, 3, 5)]), 2,
                     Fraction(1, 2), 0)
    with pytest.raises(UpdateError, match=message):
        apsp.process_update(event)
    apsp.process_update(UpdateEvent("delete", 0, 1))
    assert (apsp.query(0, 1), apsp.query(1, 2)) == (inf, 3)


def test_edge_multiset_replay():
    # Replaying the record stream on a copy reproduces the final edge set.
    g = random_graph(12, 30, 8, seed=5)
    twin = graph_from_edges(12, 8, list(g.edges()))
    rng = random.Random(99)
    records = []
    for _ in range(25):
        edges = list(g.edges())
        if not edges:
            break
        u, v, w = rng.choice(edges)
        if w < 8 and rng.random() < 0.4:
            records.append(g.apply_update(UpdateEvent("increase", u, v, rng.randint(w + 1, 8))))
        else:
            records.append(g.apply_update(UpdateEvent("delete", u, v)))
    for rec in records:
        twin.apply_update(UpdateEvent(rec.kind, rec.u, rec.v, rec.new_weight))
    assert sorted(g.edges()) == sorted(twin.edges())


# -- views -------------------------------------------------------------------


def test_induced_subgraph_view():
    g = graph_from_edges(5, 9, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5), (0, 4, 1)])
    sub = InducedSnapshot(g, {0, 1, 2})
    assert isinstance(sub, InducedSnapshot)
    assert list(sub.edges()) == [(0, 1, 2), (1, 2, 3)]
    assert sub.has_edge(0, 1) and not sub.has_edge(0, 4)
    assert sub.max_weight == 9 and sub.node_ids() == (0, 1, 2)
    # The snapshot takes a parent change only when its owner applies it.
    rec = g.apply_update(UpdateEvent("increase", 0, 1, 8))
    sub.apply_record(rec)
    assert dict(sub.neighbors(0)) == {1: 8}
    sub.apply_record(g.apply_update(UpdateEvent("delete", 1, 2)))
    assert list(sub.edges()) == [(0, 1, 8)]


def test_induced_distances_never_shorter():
    g = random_graph(14, 35, 6, seed=3)
    sub = InducedSnapshot(g, range(9))
    full = dijkstra(g, 0)
    restricted = dijkstra(sub, 0)
    for v, d in restricted.items():
        assert d >= full.get(v, inf) or full.get(v, inf) == inf
        assert d >= full[v]


def test_artificial_source_view():
    g = graph_from_edges(4, 9, [(0, 1, 2), (1, 2, 3), (2, 3, 4)])
    view = ArtificialSourceView(g, attach={1, 3})
    s = view.source_id
    assert s == 4
    assert sorted(view.node_ids()) == [0, 1, 2, 3, 4]
    got = dijkstra(view, s)
    # Distance from the virtual source equals distance to the attachment set.
    assert got == {s: 0, 1: 0, 3: 0, 0: 2, 2: 3}


def test_view_checks_raise_typed_errors():
    g = graph_from_edges(4, 9, [(0, 1, 2), (1, 2, 3), (2, 3, 4)])
    with pytest.raises(ParamConfigError, match="source 9 outside view"):
        dijkstra_bounded(g, 9, 5)
    with pytest.raises(ParamConfigError, match="attachment 7 outside parent view"):
        ArtificialSourceView(g, [7])
    assert not InducedSnapshot(g, {0, 1, 2}).has_edge(2, 3)  # 3 is outside


@pytest.mark.parametrize("bad", [1.5, "x", None])
def test_non_integer_node_ids_are_config_errors(bad):
    g = random_graph(16, 24, 4, seed=1)
    assert not g.has_node(bad)
    with pytest.raises(ParamConfigError, match="source"):
        FullRangeSssp(g, bad, Fraction(1, 2))
    with pytest.raises(ParamConfigError, match="source"):
        EsTree(g, bad, 10)
    state = ApspState(g, 2, Fraction(1, 2), seed=1)
    with pytest.raises(ParamConfigError, match="node"):
        state.query(0, bad)
    with pytest.raises(ParamConfigError, match="node"):
        state.query(bad, 0)


VIEW_CHECKS = """
from decrsp.graph import ArtificialSourceView, DynamicGraph, ParamConfigError, dijkstra_bounded
g = DynamicGraph(4, 9)
for u, v, w in [(0, 1, 2), (1, 2, 3), (2, 3, 4)]:
    g.add_edge(u, v, w)
for call in (lambda: dijkstra_bounded(g, 9, 5), lambda: ArtificialSourceView(g, [7])):
    try:
        print("accepted", call())
    except ParamConfigError as exc:
        print(exc)
"""


def test_view_checks_hold_under_optimize():
    # Under -O an assert would vanish and both calls would be accepted.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-O", "-c", VIEW_CHECKS], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "source 9 outside view",
        "attachment 7 outside parent view",
    ]


RECORDS_ARE_IMMUTABLE = """
from decrsp.balls import BallChangeSet, BallEvent
from decrsp.graph import ChangeRecord
for record, field in ((ChangeRecord("delete", 0, 1, 3, None), "new_weight"),
                      (BallEvent("join", 0, 1, 2), "estimate"),
                      (BallChangeSet(()), "events")):
    try:
        setattr(record, field, 9)
        print("assigned", type(record).__name__)
    except AttributeError:
        print("refused", type(record).__name__, getattr(record, field))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_change_records_and_ball_events_are_immutable(flags):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, *flags, "-c", RECORDS_ARE_IMMUTABLE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "refused ChangeRecord None",
        "refused BallEvent 2",
        "refused BallChangeSet ()",
    ]


# -- bounded Dijkstra ----------------------------------------------------------


def test_dijkstra_bounded_examples():
    g = graph_from_edges(6, 9, [(0, 1, 2), (1, 2, 2), (2, 3, 2), (3, 4, 2), (0, 5, 7)])
    assert dijkstra_bounded(g, 0, 4) == {0: 0, 1: 2, 2: 4}
    assert dijkstra_bounded(g, 0, inf) == dijkstra(g, 0)
    assert dijkstra_bounded(g, 0, 0) == {0: 0}
    # Distance to a node set: from the virtual source of a view attached to it.
    view = ArtificialSourceView(g, [2, 5])
    got = dijkstra_bounded(view, view.source_id, 2)
    del got[view.source_id]
    assert got == {2: 0, 5: 0, 1: 2, 3: 2}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 25))
def test_dijkstra_bounded_matches_oracle(seed, bound):
    rng = random.Random(seed)
    n = rng.randint(2, 16)
    m = rng.randint(1, n * (n - 1) // 2)
    g = random_graph(n, m, 7, seed)
    got = dijkstra_bounded(g, 0, bound)
    full = dijkstra(g, 0)
    assert got == {v: d for v, d in full.items() if d <= bound}


def test_oracle_routes_agree():
    for seed in range(12):
        g = random_graph(15, 40, 9, seed)
        for s in (0, 7):
            assert dijkstra(g, s) == bellman_ford(g, s)
