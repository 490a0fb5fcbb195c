"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 -m pytest benchmarks/test_bench.py -q
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NINE = (
    "setup_s", "updates_per_s", "update_p50_ms", "update_tail_ms", "query_p50_us",
    "query_tail_us", "peak_rss_mb", "max_stretch", "error_rate",
)


def bench(workload, trace, hashseed="0", cwd=ROOT, run=RUN):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run(
        [sys.executable, run, "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    return proc


def parse(proc):
    """Report lines and result of a run that finished; exit code 1 means incorrect."""
    lines = proc.stdout.splitlines()
    assert lines, proc.stderr
    result = json.loads(lines[-1])
    assert proc.returncode == (0 if result["correct"] else 1), proc.stderr
    assert result["attempted"] > 0
    assert result["correct"] == (result["failed"] == 0)
    return lines, result


def digest(lines):
    return next(line.split()[1] for line in lines if line.startswith("answers_sha256 "))


def load_run():
    spec = importlib.util.spec_from_file_location("decrsp_bench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run  # dataclasses look their module up
    spec.loader.exec_module(run)
    return run


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_and_answer_digest(workload):
    lines, result = parse(bench(workload, 0, hashseed="0"))
    units = {}
    for line in lines:
        parts = line.split()
        if parts and parts[0] in NINE:
            units[parts[0]] = parts[2]
    assert sorted(units) == sorted(NINE)
    assert units["error_rate"] == "ratio"
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert {k: units[k] for k in declared} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())

    again_lines, _ = parse(bench(workload, 0, hashseed="0"))
    assert digest(again_lines) == digest(lines)

    # Traced, under another hash seed: same answers, every declared metric.
    traced_lines, traced = parse(bench(workload, 1, hashseed="1"))
    assert digest(traced_lines) == digest(lines)
    assert not [l for l in traced_lines if l.startswith("FAILED trace:")]
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == declared
    assert metrics["trace.update_total_s"] > 0
    assert metrics["layered.heap_reads"] == metrics["layered.query.calls"] > 0
    layered_only = [k for k in metrics if k.startswith(("monotone_tree.", "hopset."))]
    if workload == "sssp-layered":
        assert all(metrics[k] > 0 for k in layered_only)
    else:
        assert layered_only and all(metrics[k] == 0 for k in layered_only)
    line = next(l for l in traced_lines if l.startswith("slowest_update "))
    slowest = json.loads(line.split(" ", 1)[1])
    assert slowest["kind"] in ("delete", "increase") and slowest["top_module"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_check_passes(workload):
    lines, result = parse(bench(workload, 0))
    assert result["correct"] and result["failed"] == 0
    reported = [l for l in lines if l.startswith("apsp_answer_decreases ")]
    assert len(reported) == (workload == "apsp-sweep")


def test_ball_check_fails_a_decrease_only_while_the_pair_stays_in_the_ball():
    run = load_run()

    class Balls:
        value = 5

        def estimate(self, u, v):
            return self.value

    structure = type("Structure", (), {"balls": Balls()})()
    out, last = run.Pass(), {}
    for value in (5, run.inf, 4, 4, 3):  # leaves, rejoins lower, then shrinks
        structure.balls.value = value
        run.track_balls(out, structure, [(0, 1)], "test", last)
    assert out.failed == 1 and "decreased from 4 to 3" in out.failures[0]


def test_traced_run_restores_every_wrapped_attribute_and_nests_its_spans():
    run = load_run()
    tracing = sys.modules["tracing"]
    before = []
    for _, module_name, path in tracing.TARGETS:
        original, sites = tracing.patch_sites(module_name, path)
        assert sites
        before += [(owner, attr, original) for owner, attr in sites]
    result, lines, extras = run.run("sssp-layered", 3, 0.5, 1, size="tiny")
    assert result["correct"], lines
    changed = [(o, a) for o, a, f in before if vars(o)[a] is not f]
    assert changed == []
    tracer = extras["tracer"]
    assert tracer.problems() == []
    # The update roots' self times add up to the update total.
    calls, self_ns, update_total, by_update = tracer.analyse()
    assert sum(sum(m.values()) for m in by_update.values()) == update_total > 0


def test_span_checks_catch_broken_nesting():
    load_run()
    Tracer = sys.modules["tracing"].Tracer
    tracer = Tracer()
    root = tracer.open(tracer.name_id("bench.update"))
    child = tracer.open(tracer.name_id("es_tree.process_update"))
    tracer.close(child)
    tracer.close_root(root, 0, 1)  # the root ends before its child starts
    assert tracer.problems() == [
        "1 spans outside their parent's interval", "1 spans with negative self time"]

    tracer = Tracer()
    root = tracer.open(tracer.name_id("bench.update"))
    tracer.open(tracer.name_id("graph.apply_update"))
    tracer.close_root(root, 0, 2**62)  # the child was never closed
    problems = tracer.problems()
    assert "1 unbalanced span closes" in problems and "1 spans still open" in problems


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path, run=str(tmp_path / "benchmarks" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
