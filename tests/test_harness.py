"""Schedule generation, oracle-validated runs, reports, and the CLI."""

import hashlib
import io
import os
import subprocess
import sys
import tracemalloc
from collections import deque
from fractions import Fraction
from math import inf
from pathlib import Path

import pytest

from decrsp.apsp import ApspState
from decrsp.cli import _load_schedule, main
from decrsp.es_tree import EsTree
from decrsp.graph import (
    DynamicGraph,
    QueryProbe,
    UpdateError,
    UpdateEvent,
    load_graph,
    parse_update_stream,
)
from decrsp.harness import (
    RunConfig,
    Schedule,
    ScheduleError,
    _bounded_hop_distances,
    _unrank_pair,
    generate_instance,
    run_with_oracle,
    static_hopset_check,
)
from decrsp.layered import FullRangeSssp


def path_graph(n, w=1):
    g = DynamicGraph(n, w)
    for i in range(n - 1):
        g.add_edge(i, i + 1, w)
    return g


# -- instance generation -------------------------------------------------------


def test_generation_is_deterministic_per_seed():
    a = generate_instance(12, 24, 8, "erdos-renyi", 1.0, seed=3,
                          increase_rate=0.3, query_rate=0.4)
    b = generate_instance(12, 24, 8, "erdos-renyi", 1.0, seed=3,
                          increase_rate=0.3, query_rate=0.4)
    c = generate_instance(12, 24, 8, "erdos-renyi", 1.0, seed=4,
                          increase_rate=0.3, query_rate=0.4)
    assert a == b
    assert a != c


def test_edgeless_request_yields_empty_schedule():
    sched = generate_instance(10, 0, 4, "erdos-renyi", 1.0, seed=1)
    assert sched.edges == ()
    assert sched.items == ()


def test_full_deletion_of_path_emits_each_edge_once():
    sched = generate_instance(4, 0, 1, "path", 1.0, seed=9)
    deletions = [(e.u, e.v) for e in sched.updates() if e.kind == "delete"]
    assert len(deletions) == 3
    assert sorted(deletions) == [(0, 1), (1, 2), (2, 3)]


def test_every_generated_event_is_valid_at_its_position():
    sched = generate_instance(16, 32, 6, "erdos-renyi", 1.0, seed=11,
                              increase_rate=0.5, query_rate=0.3)
    graph = sched.build_graph()
    updates = sched.updates()
    assert any(e.kind == "increase" for e in updates)
    for event in updates:  # apply_update raises on any invalid event
        graph.apply_update(event)
    assert graph.edge_count == 0


def test_grid_and_power_law_topologies():
    grid = generate_instance(12, 0, 3, "grid", 0.0, seed=2)
    g = grid.build_graph()
    assert all(len(g.neighbors(v)) <= 4 for v in g.node_ids())
    assert g.has_edge(0, 1) and g.has_edge(0, 3)  # 3-wide truncated grid

    pl = generate_instance(20, 30, 3, "power-law", 0.0, seed=2)
    h = pl.build_graph()
    assert h.edge_count >= 20  # attachment alone yields n edges
    from decrsp.oracle import dijkstra
    assert len(dijkstra(h, 0)) == 20  # preferential attachment keeps it connected


@pytest.mark.parametrize(
    "seed, n, m, digest",
    [
        (1, 24, 48, "5928fcf6f625253c25db993434e14c71166b2bd8840e8fcc8b58500b275726f4"),
        (7, 100, 300, "c306599a4a964641c1befbd03e613ef7f58b4b3590cf6596ce841ff3b802b2b3"),
        (3, 500, 1500, "873802215b19fef3503b6fc5a763dc5fe1ba767d492cd1207d0bd556eb5d9e84"),
    ],
)
def test_power_law_schedules_are_pinned(seed, n, m, digest):
    sched = generate_instance(n, m, 8, "power-law", 1.0, seed,
                              increase_rate=0.3, query_rate=0.2)
    text = sched.dump_graph() + sched.dump_updates()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "seed, n, m, w_max, digest",
    [
        (41, 24, 48, 8, "d9b094789ad2d87a6a7a2155d1fe9210f11ed329d562069653eb2c1cc834c87f"),
        (7, 24, 48, 8, "c3e42a2f6665fc9f8d4056216e6cb81d19b8be9f15f81d6169e74312f552e8c0"),
        (1, 100, 400, 1024, "26494f8a64edd92962e48fca81fc959f391f236723f29e25eaa1f2306ad34c0d"),
        (11, 100, 400, 1024, "5bbe86658b7b879e6be6a9cfa53348506915be263ad68452e9efb6f9b6b7e3a9"),
        (3, 1000, 3000, 8, "de266974243880d1154a682f7cd64e972ed92cb6664e4943561bbbbed5757951"),
    ],
)
def test_erdos_renyi_increase_schedules_are_pinned(seed, n, m, w_max, digest):
    # Weight increases draw from the growable edges in edge order; the
    # digests were taken from the list-rebuilding generator.
    sched = generate_instance(n, m, w_max, "erdos-renyi", 1.0, seed, increase_rate=0.3)
    text = sched.dump_graph() + sched.dump_updates()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "seed, n, m, w_max, digest",
    [
        (7, 24, 48, 8, "f0b3440197b64b40c7be6fd05bef1b1dd0a22d5b3d2c726172880fac6b0c3a3c"),
        (41, 24, 48, 8, "9b986273f26d93fc02a9a5da6fb3b49b5187f4337a8be50c5ffb7b8422d0b5d9"),
        (1, 100, 400, 1024, "c60d801096fc4ba6a40bdbf1897f0e010b164a43acd797ac29a9974b6e5ee592"),
        (11, 100, 400, 1024, "32ebc6f04e24da4ea166a97be067340c4ed4dec7672dfdec79e19ae9e064c39f"),
        (5, 3000, 12000, 8, "2f46a5d73ae3608494d8e6c94df8cfecd77451b0c58519068b2a3ccef2f77505"),
    ],
)
def test_erdos_renyi_pair_lists_are_pinned(seed, n, m, w_max, digest):
    # The digests were taken from the row-walking pair unranking.
    sched = generate_instance(n, m, w_max, "erdos-renyi", 1.0, seed)
    text = "".join("%d %d\n" % (u, v) for u, v, _ in sched.build_graph().edges())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_pair_unranking_matches_the_row_walk():
    def row_walk(index, n):
        u, row = 0, n - 1
        while index >= row:
            index -= row
            u += 1
            row -= 1
        return u, u + 1 + index

    for n in range(2, 40):
        for index in range(n * (n - 1) // 2):
            assert _unrank_pair(index, n) == row_walk(index, n)


def test_power_law_generation_needs_no_quadratic_pool():
    # A pool of all n(n-1)/2 pair indices peaks near 37 MB at n = 1000.
    generate_instance(20, 30, 8, "power-law", 1.0, seed=5)  # warm imports
    tracemalloc.start()
    try:
        generate_instance(1000, 3000, 8, "power-law", 1.0, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_rejects_bad_model_and_fraction():
    with pytest.raises(ScheduleError):
        generate_instance(5, 4, 2, "small-world", 0.5, seed=0)
    with pytest.raises(ScheduleError):
        generate_instance(5, 4, 2, "erdos-renyi", 1.5, seed=0)
    with pytest.raises(ScheduleError):
        generate_instance(5, 100, 2, "erdos-renyi", 0.5, seed=0)


def test_dump_round_trips_through_the_file_formats():
    sched = generate_instance(10, 18, 5, "erdos-renyi", 1.0, seed=7,
                              increase_rate=0.4, query_rate=0.4)
    graph = load_graph(io.StringIO(sched.dump_graph()))
    assert tuple(graph.edges()) == sched.edges
    items = tuple(parse_update_stream(io.StringIO(sched.dump_updates())))
    assert items == sched.items


# -- oracle-validated runs -----------------------------------------------------


def test_exact_tree_run_has_zero_stretch_everywhere():
    sched = generate_instance(14, 28, 8, "erdos-renyi", 1.0, seed=5,
                              increase_rate=0.2)
    report = run_with_oracle(sched, RunConfig(mode="es"))
    assert report.get("max_stretch") == "1"
    assert report.get("underestimate_violations") == 0
    assert report.get("invariant_failures") == 0
    assert report.get("updates_processed") == len(sched.updates())


def test_sssp_run_respects_the_stretch_bound():
    sched = generate_instance(16, 30, 8, "erdos-renyi", 1.0, seed=6,
                              increase_rate=0.2, query_rate=0.3)
    report = run_with_oracle(sched, RunConfig(mode="sssp", eps=Fraction(1, 2), seed=1))
    assert report.get("underestimate_violations") == 0
    assert report.get("invariant_failures") == 0
    assert Fraction(report.get("max_stretch")) <= Fraction(3, 2)
    assert report.get("work_query_heap_reads") > 0


def test_apsp_run_respects_the_stretch_bound():
    sched = generate_instance(14, 26, 4, "erdos-renyi", 1.0, seed=8,
                              query_rate=0.4)
    report = run_with_oracle(
        sched, RunConfig(mode="apsp", k=2, eps=Fraction(1, 2), seed=2, c=0.3)
    )
    assert report.get("underestimate_violations") == 0
    assert report.get("invariant_failures") == 0
    assert Fraction(report.get("max_stretch")) <= Fraction(21, 4)
    assert report.get("query_answers") > 0


def test_oracle_stride_controls_check_count():
    sched = generate_instance(12, 20, 4, "erdos-renyi", 1.0, seed=3)
    updates = len(sched.updates())
    report = run_with_oracle(sched, RunConfig(mode="es", oracle_stride=4))
    assert report.get("oracle_checks") == 1 + updates // 4


def test_forged_low_estimate_is_reported_at_the_right_index(monkeypatch):
    sched = generate_instance(12, 24, 8, "erdos-renyi", 1.0, seed=3)
    done = []  # one entry per update the structure has digested
    apply_event, query = FullRangeSssp.apply_event, FullRangeSssp.query

    def counted_apply_event(self, event):
        changed = apply_event(self, event)
        done.append(event)
        return changed

    def forged_query(self, node):
        # Node 5 reads 0, below its true distance, after update 2 only.
        return 0 if node == 5 and len(done) == 2 else query(self, node)

    monkeypatch.setattr(FullRangeSssp, "apply_event", counted_apply_event)
    monkeypatch.setattr(FullRangeSssp, "query", forged_query)
    report = run_with_oracle(sched, RunConfig(mode="sssp", seed=1))
    assert report.get("underestimate_violations") == 1
    entry = report.get("underestimate")
    assert entry.startswith("index=2 node=5 est=0")


def test_reports_are_byte_identical_across_runs():
    sched = generate_instance(12, 24, 8, "erdos-renyi", 1.0, seed=3,
                              increase_rate=0.3, query_rate=0.4)
    config = RunConfig(mode="sssp", eps=Fraction(1, 2), seed=1, oracle_stride=2)
    first = run_with_oracle(sched, config).render()
    second = run_with_oracle(sched, config).render()
    assert first == second
    assert first.encode() == second.encode()


# -- static shortcut-edge verification ------------------------------------------


def test_weighted_complete_graph_needs_one_hop_per_covered_pair():
    g = DynamicGraph(8, 16)
    for u in range(8):
        for v in range(u + 1, 8):
            g.add_edge(u, v, 8 + (u + v) % 9)
    report = static_hopset_check(g, 2, 1, Fraction(1, 1), seed=0)
    assert report["covered_pairs"] == 8 * 7  # additive floor 2 <= every distance
    assert report["worst_needed_hops"] == 1


def test_path_with_shortcut_edges_satisfies_the_trade_off():
    report = static_hopset_check(path_graph(20), 3, 4, Fraction(1, 2), seed=0, c=0.3)
    assert report["finite_pairs"] == 20 * 19
    assert report["shortcut_edges"] > 0


def test_forced_empty_shortcut_set_reproduces_exact_hop_counts():
    # With no shortcut edges, the first round of the hop-limited DP in which
    # a node turns finite is its breadth-first hop count, for every pair.
    graph = path_graph(20)
    directed = [arc for u, v, w in graph.edges() for arc in ((u, v, w), (v, u, w))]
    finite_pairs = 0
    for source in graph.node_ids():
        hops = {source: 0}
        frontier = deque([source])
        while frontier:
            x = frontier.popleft()
            for y, _ in graph.neighbors(x):
                if y not in hops:
                    hops[y] = hops[x] + 1
                    frontier.append(y)
        table = _bounded_hop_distances(20, directed, source, max(hops.values()))
        for v, exact in hops.items():
            first = next(h for h, row in enumerate(table) if row[v] != inf)
            assert first == exact, (source, v)
            finite_pairs += v != source
    assert finite_pairs == 20 * 19


def test_covered_band_is_populated_when_distances_dominate_the_additive_term():
    report = static_hopset_check(path_graph(40), 3, 1, Fraction(1, 1), seed=2, c=0.3)
    assert report["covered_pairs"] > 0
    assert 0 < report["worst_needed_hops"] <= report["max_hop_budget"]


# -- command line ---------------------------------------------------------------


@pytest.fixture
def instance_files(tmp_path):
    sched = generate_instance(14, 26, 8, "erdos-renyi", 1.0, seed=5,
                              increase_rate=0.2, query_rate=0.5)
    gp = tmp_path / "g.txt"
    up = tmp_path / "u.txt"
    gp.write_text(sched.dump_graph())
    up.write_text(sched.dump_updates())
    return str(gp), str(up), sched


def test_cli_sssp_answers_source_probes_and_prints_final_estimates(instance_files):
    gp, up, sched = instance_files
    buf = io.StringIO()
    rc = main(["sssp", "--graph", gp, "--updates", up, "--seed", "1"], out=buf)
    assert rc == 0
    lines = buf.getvalue().splitlines()
    finals = [ln for ln in lines if ln.startswith("est ")]
    assert len(finals) == 14
    assert all(ln.split()[2] == "inf" for ln in finals[1:])  # everything deleted
    assert finals[0] == "est 0 0"


def test_cli_apsp_answers_match_a_direct_replay(instance_files):
    gp, up, sched = instance_files
    buf = io.StringIO()
    rc = main(["apsp", "--graph", gp, "--updates", up, "--k", "2",
               "--c", "0.3", "--seed", "1"], out=buf)
    assert rc == 0
    answers = [ln for ln in buf.getvalue().splitlines() if ln.startswith("Q ")]

    graph = sched.build_graph()
    state = ApspState(graph, 2, Fraction(1, 2), 1, c=0.3)
    expected = []
    for item in sched.items:
        if isinstance(item, QueryProbe):
            got = state.query(item.u, item.v)
            text = "inf" if got == inf else str(got)
            expected.append("Q %d %d %s" % (item.u, item.v, text))
        else:
            state.process_update(item)
    assert answers == expected


def test_cli_check_mode_writes_a_deterministic_report(instance_files, tmp_path):
    gp, up, _ = instance_files
    r1 = tmp_path / "r1.txt"
    r2 = tmp_path / "r2.txt"
    for rp in (r1, r2):
        rc = main(["check", "--graph", gp, "--updates", up, "--seed", "1",
                   "--oracle-stride", "2", "--report", str(rp)], out=io.StringIO())
        assert rc == 0
    assert r1.read_bytes() == r2.read_bytes()
    text = r1.read_text()
    assert "underestimate_violations=0\n" in text
    assert "emissions_sha256=" in text


# case id -> (arguments, exit code, last stderr line).  Exit 2 is argparse
# rejecting an argument's type; exit 1 is a typed error from the library.
CLI_REJECTIONS = {
    "sssp": (["sssp", "--source", "9"], 1, "decrsp: error: source 9 is not in the graph"),
    "check": (["check", "--source", "9"], 1, "decrsp: error: source 9 is not in the graph"),
    # probe.txt holds the one line "Q 0 9", update.txt the one line "D 1 8".
    "sssp-probe-9": (["sssp", "--updates", "probe.txt"], 1,
                     "decrsp: error: query probe (0, 9) outside [0, 4)"),
    "check-probe-9": (["check", "--updates", "probe.txt"], 1,
                      "decrsp: error: query probe (0, 9) outside [0, 4)"),
    "sssp-update-node-8": (["sssp", "--updates", "update.txt"], 1,
                           "decrsp: error: node id 8 outside [0, 4)"),
    "apsp-update-node-8": (["apsp", "--updates", "update.txt"], 1,
                           "decrsp: error: node id 8 outside [0, 4)"),
    "check-update-node-8": (["check", "--updates", "update.txt"], 1,
                            "decrsp: error: node id 8 outside [0, 4)"),
    "epsilon-abc": (["sssp", "--epsilon", "abc"], 2,
                    "decrsp: error: argument --epsilon: invalid fraction value: 'abc'"),
    "oracle-stride-0": (["check", "--oracle-stride", "0"], 2,
                        "decrsp: error: argument --oracle-stride: invalid positive_int value: '0'"),
    "apsp-k1": (["apsp", "--k", "1"], 1,
                "decrsp: error: priority levels p=1 outside [2, log2(n)=2.00] for n=4"),
    "apsp-k5": (["apsp", "--k", "5"], 1,
                "decrsp: error: priority levels p=5 outside [2, log2(n)=2.00] for n=4"),
    "apsp-epsilon-0": (["apsp", "--epsilon", "0"], 1, "decrsp: error: need 0 < eps <= 1, got 0"),
    "apsp-epsilon-tiny": (["apsp", "--epsilon", "1e-400"], 1,
                          "decrsp: error: bucket eps too small: more than 4096 buckets to "
                          "cover n*W=20"),
    "p2q3-epsilon-tiny": (["sssp", "--epsilon", "1e-400", "--p", "2", "--q", "3"], 1,
                          "decrsp: error: eps too small for a layered stack: tree weights "
                          "pass the float range"),
    "check-q3": (["check", "--q", "3"], 1,
                 "decrsp: error: layered mode needs priority count p >= 2, got None"),
    "p3q4": (["sssp", "--p", "3", "--q", "4"], 1,
             "decrsp: error: layer count q=4 unsupported: q < 3 runs exact trees, "
             "q = 3 one shortcut layer"),
    "check-p3q5": (["check", "--p", "3", "--q", "5"], 1,
                   "decrsp: error: layer count q=5 unsupported: q < 3 runs exact trees, "
                   "q = 3 one shortcut layer"),
    "c-0": (["sssp", "--c", "0", "--p", "2", "--q", "3"], 2,
            "decrsp: error: argument --c: invalid positive_float value: '0'"),
    "c-negative": (["sssp", "--c", "-1", "--p", "2", "--q", "3"], 2,
                   "decrsp: error: argument --c: invalid positive_float value: '-1'"),
    "c-nan": (["sssp", "--c", "nan", "--p", "2", "--q", "3"], 2,
              "decrsp: error: argument --c: invalid positive_float value: 'nan'"),
    "c-inf": (["sssp", "--c", "inf", "--p", "2", "--q", "3"], 2,
              "decrsp: error: argument --c: invalid positive_float value: 'inf'"),
    "source-float": (["sssp", "--source", "1.5"], 2,
                     "decrsp: error: argument --source: invalid int value: '1.5'"),
    "source-bool": (["sssp", "--source", "True"], 2,
                    "decrsp: error: argument --source: invalid int value: 'True'"),
    # There is no bench mode: time a replay with benchmarks/run.py.
    "bench": (["bench"], 2, "decrsp: error: argument mode: invalid choice: 'bench' "
              "(choose from 'sssp', 'apsp', 'check')"),
    # File paths are relative to a working directory holding only probe.txt and update.txt.
    "graph-missing": (["sssp", "--graph", "nope.txt"], 1,
                      "decrsp: error: nope.txt: No such file or directory"),
    "updates-missing": (["sssp", "--updates", "nope.txt"], 1,
                        "decrsp: error: nope.txt: No such file or directory"),
    "graph-directory": (["check", "--graph", "."], 1, "decrsp: error: .: Is a directory"),
    "report-unwritable": (["check", "--report", "no-dir/report.txt"], 1,
                          "decrsp: error: no-dir/report.txt: No such file or directory"),
}


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
@pytest.mark.parametrize("case", list(CLI_REJECTIONS))
def test_cli_source_outside_graph_is_one_error_line(tmp_path, case, optimize):
    # Every rejected input on a 4-node graph ends in one error line, never a
    # traceback, also under -O where asserts are gone.
    args, code, message = CLI_REJECTIONS[case]
    gp = tmp_path / "g.txt"
    gp.write_text("4 3 5\n0 1 2\n1 2 3\n2 3 5\n")
    work = tmp_path / "work"
    work.mkdir()
    (work / "probe.txt").write_text("Q 0 9\n")
    (work / "update.txt").write_text("D 1 8\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable] + (["-O"] if optimize else [])
    cmd += ["-m", "decrsp.cli"] + args
    if "--graph" not in args:
        cmd += ["--graph", str(gp)]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60, cwd=work)
    assert done.returncode == code
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    if code == 2:
        assert lines[0].startswith("usage: decrsp") and lines[-1] == message
    else:
        assert lines == [message]


# file -> (its bytes, the error line); the other file stays valid.
UNDECODABLE = {
    "graph": (b"3 2 5\n0 1 2\n1 2 \xff3\n", "decrsp: error: g.txt: line 3: byte 0xff is not UTF-8"),
    "updates": (b"D 0 1\nQ 0 \xfe2\n", "decrsp: error: u.txt: line 2: byte 0xfe is not UTF-8"),
}


@pytest.mark.parametrize("run", ["plain", "optimized", "c-locale"])
@pytest.mark.parametrize("bad", list(UNDECODABLE))
def test_cli_undecodable_byte_is_one_error_line(tmp_path, bad, run):
    # Both files are read as UTF-8 whatever the locale, and a byte that does
    # not decode names its file and line, also under -O and the C locale.
    data, message = UNDECODABLE[bad]
    (tmp_path / "g.txt").write_bytes(data if bad == "graph" else b"3 2 5\n0 1 2\n1 2 3\n")
    (tmp_path / "u.txt").write_bytes(data if bad == "updates" else b"D 0 1\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    if run == "c-locale":
        env.update(LC_ALL="C", PYTHONUTF8="0")
    cmd = [sys.executable] + (["-O"] if run == "optimized" else [])
    cmd += ["-m", "decrsp.cli", "check", "--graph", "g.txt", "--updates", "u.txt"]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60,
                          cwd=tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (1, "", message + "\n")


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
@pytest.mark.parametrize("extra", [[], ["--p", "2", "--q", "3"]], ids=["default", "p2q3"])
def test_cli_tiny_epsilon_answers(tmp_path, extra, optimize):
    # The default path runs exact trees at any eps; a layered stack at
    # eps = 1e-30 builds with integer roots instead of stepping to them.
    eps = "1e-30" if extra else "1e-400"
    gp = tmp_path / "g.txt"
    gp.write_text("6 5 7\n0 1 3\n1 2 5\n2 3 4\n3 4 7\n4 5 2\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable] + (["-O"] if optimize else [])
    cmd += ["-m", "decrsp.cli", "sssp", "--epsilon", eps] + extra + ["--graph", str(gp)]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stderr == ""
    lines = done.stdout.splitlines()
    assert [line.split()[:2] for line in lines] == [["est", str(v)] for v in range(6)]
    exact = [0, 3, 8, 12, 19, 21]
    for line, d in zip(lines, exact):
        est = Fraction(line.split()[2])
        assert d <= est <= (1 + Fraction(eps)) * d


def test_cli_update_on_missing_edge_is_one_error_line(tmp_path, capsys):
    gp = tmp_path / "g.txt"
    up = tmp_path / "u.txt"
    gp.write_text("4 3 5\n0 1 2\n1 2 3\n2 3 5\n")
    up.write_text("D 0 2\n")
    for mode in ("sssp", "apsp", "check"):
        rc = main([mode, "--graph", str(gp), "--updates", str(up)], out=io.StringIO())
        assert rc == 1
        assert capsys.readouterr().err == "decrsp: error: edge (0, 2) not present\n"


def fail_first_delete(monkeypatch, error=RuntimeError("injected band fault")):
    """Make every band's exact tree raise ``error`` once, on the first delete
    record it gets, after the graph changed."""
    original, failed = EsTree.process_update, []

    def fail_once(tree, record):
        if record.kind == "delete" and not failed:
            failed.append(record)
            raise error
        return original(tree, record)

    monkeypatch.setattr(EsTree, "process_update", fail_once)
    return failed


@pytest.mark.parametrize("argv", [["check"], ["sssp", "--oracle-check"],
                                  ["apsp", "--oracle-check"]],
                         ids=["check", "sssp-oracle-check", "apsp-oracle-check"])
def test_oracle_replay_fault_inside_an_update_is_one_error_line(tmp_path, capsys, monkeypatch,
                                                               argv):
    # The same fault under the oracle replay: no report, one error line
    # naming the update, exit 1; run_with_oracle raises the UpdateError from
    # the band's exception.
    gp = tmp_path / "g.txt"
    up = tmp_path / "u.txt"
    gp.write_text("4 3 5\n0 1 2\n1 2 3\n2 3 5\n")
    up.write_text("Q 0 3\nI 0 1 4\nD 1 2\nQ 0 3\n")
    failed = fail_first_delete(monkeypatch)
    argv = argv + ["--graph", str(gp), "--updates", str(up)]
    out = io.StringIO()
    assert main(argv, out=out) == 1
    assert out.getvalue() == ""
    assert capsys.readouterr().err == (
        "decrsp: error: update 2 (D 1 2) failed: RuntimeError: injected band fault\n")
    failed.clear()
    mode = "apsp" if argv[0] == "apsp" else "sssp"
    with pytest.raises(UpdateError, match="update 2") as info:
        run_with_oracle(_load_schedule(str(gp), str(up)), RunConfig(mode=mode))
    assert type(info.value.__cause__) is RuntimeError


@pytest.mark.parametrize("mode", ["sssp", "apsp"])
def test_cli_fault_inside_an_update_is_one_error_line(tmp_path, capsys, monkeypatch, mode):
    # A band's exact tree raises once, inside the second update and after
    # the graph changed.  The run ends in one error line naming that update
    # and exit 1, never a traceback; the error is an UpdateError raised from
    # the band's exception.
    gp = tmp_path / "g.txt"
    up = tmp_path / "u.txt"
    gp.write_text("4 3 5\n0 1 2\n1 2 3\n2 3 5\n")
    up.write_text("Q 0 3\nI 0 1 4\nD 1 2\nQ 0 3\n")
    failed = fail_first_delete(monkeypatch)
    argv = [mode, "--graph", str(gp), "--updates", str(up)]
    out = io.StringIO()
    assert main(argv, out=out) == 1
    assert out.getvalue() == "Q 0 3 10\n"
    assert capsys.readouterr().err == (
        "decrsp: error: update 2 (D 1 2) failed: RuntimeError: injected band fault\n")
    failed.clear()
    with pytest.raises(UpdateError, match="update 2") as info:
        run_with_oracle(_load_schedule(str(gp), str(up)), RunConfig(mode=mode, oracle_check=False),
                        io.StringIO())
    assert type(info.value.__cause__) is RuntimeError


@pytest.mark.parametrize("argv", ["sssp", "apsp", "check", "sssp --oracle-check"],
                         ids=["sssp", "apsp", "check", "sssp-oracle-check"])
def test_an_assertion_inside_an_update_fails_the_update_unless_the_oracle_reports_it(
        tmp_path, capsys, monkeypatch, argv):
    # Without the oracle an AssertionError is a fault like any other; under
    # it, an invariant failure that ends the replay, printed in the report
    # alone: the poisoned structure is asked for no final estimate.
    gp = tmp_path / "g.txt"
    up = tmp_path / "u.txt"
    gp.write_text("4 3 5\n0 1 2\n1 2 3\n2 3 5\n")
    up.write_text("Q 0 3\nI 0 1 4\nD 1 2\nQ 0 3\n")
    fail_first_delete(monkeypatch, AssertionError("injected band check"))
    out = io.StringIO()
    assert main(argv.split() + ["--graph", str(gp), "--updates", str(up)], out=out) == 1
    err = capsys.readouterr().err
    if argv in ("sssp", "apsp"):
        assert out.getvalue() == "Q 0 3 10\n"
        assert err == ("decrsp: error: update 2 (D 1 2) failed: AssertionError: "
                       "injected band check\n")
    else:
        assert err == ""
        report = out.getvalue()
        assert "invariant_failure=index=2 assert=injected band check\n" in report
        assert report.splitlines()[-1].startswith("emissions_sha256=")


def apsp_motivation_run(tmp_path, argv):
    """stdout of ``decrsp apsp --oracle-check`` on a shape where the oracle's
    source-row reads raise later probe answers."""
    sched = generate_instance(12, 24, 8, "erdos-renyi", 1.0, 5, increase_rate=0.3,
                              query_rate=0.5)
    gp, up = tmp_path / "g.txt", tmp_path / "u.txt"
    gp.write_text(sched.dump_graph())
    up.write_text(sched.dump_updates())
    out = io.StringIO()
    assert main(argv + ["--graph", str(gp), "--updates", str(up)], out=out) == 0
    return out.getvalue()


def test_cli_oracle_check_prints_the_answers_its_report_checked(tmp_path):
    argv = ["apsp", "--oracle-check", "--k", "2", "--c", "0.3", "--oracle-stride", "1",
            "--seed", "5"]
    text = apsp_motivation_run(tmp_path, argv)
    report, answers = text.split("\nQ ", 1)
    answers = "Q " + answers
    assert report.endswith("emissions_sha256=" + hashlib.sha256(answers.encode()).hexdigest())
    assert "Q 0 10 12\n" in answers
    plain = apsp_motivation_run(tmp_path, ["apsp", "--k", "2", "--c", "0.3", "--seed", "5"])
    assert answers != plain  # the oracle's own reads raise some clamps


@pytest.mark.parametrize("mode,cls", [("sssp", FullRangeSssp), ("apsp", ApspState)])
def test_cli_oracle_check_builds_its_structure_once(instance_files, monkeypatch, mode, cls):
    gp, up, _ = instance_files
    built = []
    init = cls.__init__

    def counted_init(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted_init)
    out = io.StringIO()
    assert main([mode, "--oracle-check", "--c", "0.3", "--graph", gp, "--updates", up],
                out=out) == 0
    assert "\nQ " in out.getvalue()
    assert built == [cls]


def test_oracle_checks_every_probe_answer_off_the_source_row(monkeypatch):
    # Oracle steps read the source row only, so these two forged answers
    # are caught by the per-probe check alone.
    sched = Schedule(n=4, w_max=5, edges=((0, 1, 2), (1, 2, 3), (2, 3, 5)),
                     items=(QueryProbe(2, 3), UpdateEvent("increase", 0, 1, 4), QueryProbe(1, 3)),
                     seed=0, model="hand")
    query = ApspState.query
    forged = {(2, 3): 0, (1, 3): 1000}
    monkeypatch.setattr(ApspState, "query",
                        lambda self, u, v: forged[u, v] if (u, v) in forged else query(self, u, v))
    out = io.StringIO()
    report = run_with_oracle(sched, RunConfig(mode="apsp"), out)
    assert out.getvalue() == "Q 2 3 0\nQ 1 3 1000\n"
    assert (report.get("underestimate"), report.get("invariant_failure")) == (
        "index=0 pair=2,3 est=0 dist=5", "index=1 pair=1,3 stretch=125")
