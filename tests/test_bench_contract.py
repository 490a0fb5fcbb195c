"""The benchmark's tracer still reaches every library entry point it names.

``benchmarks/tracing.py`` wraps functions by module and attribute name, so a
rename or deletion in ``src/`` breaks ``benchmarks/run.py --trace 1`` without
failing any library test.  This loads the tracer by path and resolves each
of its targets.
"""

import importlib.util
from pathlib import Path

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
