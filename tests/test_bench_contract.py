"""The benchmark's tracer still reaches every library entry point it names.

``benchmarks/tracing.py`` wraps functions by module and attribute name, so a
rename or deletion in ``src/`` breaks ``benchmarks/run.py --trace 1`` without
failing any library test.  This loads the tracer by path and resolves each
of its targets, then drives a traced run through every layer so that a
renamed attribute the tracer reads also fails here.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

from decrsp.apsp import ApspState
from decrsp.graph import UpdateEvent
from decrsp.layered import FullRangeSssp

from test_graph_core import random_graph

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("decrsp_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_to_a_patch_site():
    tracing = load_tracing()
    unresolved = []
    for span, module_name, path in tracing.TARGETS:
        try:
            original, sites = tracing.patch_sites(module_name, path)
        except (AttributeError, KeyError, ImportError):
            original, sites = None, []
        if not callable(original) or not sites:
            unresolved.append(span)
    assert unresolved == []


def drive_small_structures():
    """A few updates and queries through every traced layer.  On this graph
    the layered instance builds a band inside its first update.  The
    all-pairs contracts are bare exact trees at W = 4 and ``FullRangeSssp``
    instances at W = 128."""
    for options in ({}, {"p": 4, "q": 3}):
        g = random_graph(16, 32, 4, seed=4)
        full = FullRangeSssp(g, 0, Fraction(1, 2), seed=1, **options)
        for u, v, _ in list(g.edges())[:6]:
            full.apply_event(UpdateEvent("delete", u, v))
            [full.query(x) for x in g.node_ids()]
    for w_max in (4, 128):
        g = random_graph(12, 24, w_max, seed=4)
        state = ApspState(g, 2, Fraction(1, 2), seed=2, c=0.25)
        for u, v, _ in list(g.edges())[:4]:
            state.process_update(UpdateEvent("delete", u, v))
            [state.query(0, x) for x in g.node_ids()]


def test_traced_run_reads_every_counter_and_restores_the_library(monkeypatch):
    # Record every FullRangeSssp the drive builds, the ones inside ApspState
    # included, so the band counters can be checked against them.  The
    # tracer counts bands when an instance is built, so the modes are taken
    # there too; bands built later are checked below.
    built = []
    init = FullRangeSssp.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append((self, [band.mode for band in self.stacks]))

    monkeypatch.setattr(FullRangeSssp, "__init__", recording_init)
    tracing = load_tracing()
    originals = {}
    for span, module_name, path in tracing.TARGETS:
        original, sites = tracing.patch_sites(module_name, path)
        originals[span] = (original, sites)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        drive_small_structures()
    finally:
        tracer.uninstall()
    assert tracer.problems() == []
    calls = tracer.analyse()[0]
    c = tracer.counters
    assert c["layered.heap_reads"] == calls["layered.query"] > 0
    # The all-pairs contracts (built at eps/7) are queried through the tracer too.
    assert c["layered.heap_reads"] == sum(full.heap_reads for full, _ in built)
    assert sum(full.heap_reads for full, _ in built if full.eps == Fraction(1, 14)) > 0
    for counter in ("layered.bands", "es_tree.edge_scans", "monotone_tree.heap_ops",
                    "hopset.update_ops"):
        assert c[counter] > 0, counter
    # The tracer reads ``kind`` on every ball event and ``events`` on every
    # change set that BallSystem.process_update returns.
    assert c["balls.events.join"] + c["balls.events.est"] + c["balls.events.leave"] > 0
    modes = [mode for _, at_init in built for mode in at_init]
    exact = modes.count("exact")
    assert c["layered.bands"] == len(modes)
    assert c["layered.exact_bands"] == exact and 0 < exact < len(modes)
    # benchmarks/tracing.py reads ``mode`` on every band, late ones included.
    assert any(full.stats()["bands_built_late"] for full, _ in built)
    assert all(band.mode in {"exact", "layered"} for full, _ in built for band in full.stacks)
    for span, (original, sites) in originals.items():
        for owner, attr in sites:
            assert vars(owner)[attr] is original, span
