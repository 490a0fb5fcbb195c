"""The command line's input boundary: the file grammar end to end, and a fuzzer.

The grammar is the one the README's CLI section states.  Whatever the
bytes, a run exits 0 with nothing on stderr, or 1 with exactly one
``decrsp: error:`` line.
"""

import io
import os
import subprocess
import sys
from contextlib import redirect_stderr
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decrsp.graph
from decrsp.cli import main
from decrsp.harness import generate_instance

GRAPH = "3 2 5\n0 1 2\n1 2 3\n"
UPDATES = "Q 0 2\nI 0 1 4\nQ 0 2\nD 1 2\nQ 0 2\n"
BOM = b"\xef\xbb\xbf"


def run_cli(tmp_path, graph, updates, mode=("sssp",)):
    """Exit code, stdout and stderr of one in-process run over the two files' bytes."""
    gp, up = tmp_path / "g.txt", tmp_path / "u.txt"
    gp.write_bytes(graph)
    up.write_bytes(updates)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stderr(err):
        code = main(list(mode) + ["--graph", str(gp), "--updates", str(up)], out=out)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("bom", ["graph", "updates", "both"])
def test_cli_skips_a_leading_byte_order_mark(tmp_path, bom):
    plain = run_cli(tmp_path, GRAPH.encode(), UPDATES.encode())
    assert plain[0] == 0 and plain[2] == "" and plain[1].startswith("Q 0 2 5\n")
    graph = (BOM if bom != "updates" else b"") + GRAPH.encode()
    updates = (BOM if bom != "graph" else b"") + UPDATES.encode()
    assert run_cli(tmp_path, graph, updates) == plain
    # Only a leading mark is skipped; one inside a file is not a field separator.
    inside = GRAPH.replace("0 1 2", "\ufeff0 1 2").encode()
    assert run_cli(tmp_path, inside, updates) == (
        1, "", "decrsp: error: line 2: non-integer edge field\n")


# case id -> (graph text, update text, the error line).  int() reads each
# token (U+0663 and +0 as 3 and 0, 1_0 as 10) and str.split() splits at U+00A0,
# so a reader built on them accepts every case.
REJECTED = {
    "arabic-indic-digit": (GRAPH.replace("1 2 3", "1 2 \u0663"), UPDATES,
                           "decrsp: error: line 3: non-integer edge field"),
    "plus-sign": (GRAPH, "Q +0 2\n", "decrsp: error: line 1: malformed update 'Q +0 2'"),
    "digit-separator": (GRAPH.replace("3 2 5", "3 2 1_0"), UPDATES,
                        "decrsp: error: line 1: non-integer header field"),
    "no-break-space": (GRAPH.replace("0 1 2", "0\u00a01 2"), UPDATES,
                       "decrsp: error: line 2: edge must be 'u v w'"),
    "no-break-space-update": (GRAPH, "Q 0 2\nD 0\u00a01\n",
                              "decrsp: error: line 2: malformed update 'D 0\\xa01'"),
}


@pytest.mark.parametrize("mode", ["sssp", "check"])
@pytest.mark.parametrize("case", list(REJECTED))
def test_cli_rejects_integers_and_separators_outside_the_grammar(tmp_path, case, mode):
    graph, updates, message = REJECTED[case]
    assert run_cli(tmp_path, graph.encode(), updates.encode(), (mode,)) == (
        1, "", message + "\n")


@pytest.mark.parametrize("case", list(REJECTED))
def test_cli_rejections_are_byte_identical_under_optimize_and_hash_seeds(tmp_path, case):
    graph, updates, message = REJECTED[case]
    (tmp_path / "g.txt").write_bytes(graph.encode())
    (tmp_path / "u.txt").write_bytes(updates.encode())
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    runs = set()
    for flags, seed in [([], "0"), ([], "1"), (["-O"], "0")]:
        done = subprocess.run(
            [sys.executable, *flags, "-m", "decrsp.cli", "sssp", "--graph", "g.txt",
             "--updates", "u.txt"], env=dict(env, PYTHONHASHSEED=seed), capture_output=True,
            timeout=60, cwd=tmp_path)
        runs.add((done.returncode, done.stdout, done.stderr))
    assert runs == {(1, b"", message.encode() + b"\n")}


MB = 1 << 20
PLAIN = (0, "Q 0 2 5\nQ 0 2 7\nQ 0 2 inf\nest 0 0\nest 1 4\nest 2 inf\n", "")
# case id -> (graph text, update text, the run's (exit code, stdout, stderr)).
LONG_LINES = {
    "comment": ("#" + "x" * MB + "\n" + GRAPH, UPDATES, PLAIN),
    "comment-in-updates": (GRAPH, "Q 0 2 # " + "y" * MB + "\n" + UPDATES[6:], PLAIN),
    "blanks-between-fields": (GRAPH.replace("0 1 2", "0" + " \t" * (MB // 2) + "1 2"),
                              UPDATES.replace("D 1 2", "D\t" + " " * MB + "1 2"), PLAIN),
    # An integer field holds at most graph.MAX_DIGITS digits.
    "digits": (GRAPH.replace("1 2 3", "1 2 " + "7" * MB), UPDATES,
               (1, "", "decrsp: error: line 3: integer field above the digit cap 640\n")),
}


@pytest.mark.parametrize("case", list(LONG_LINES))
def test_cli_megabyte_lines_end_in_an_answer_or_one_error_line(tmp_path, case):
    graph, updates, expected = LONG_LINES[case]
    assert run_cli(tmp_path, graph.encode(), updates.encode()) == expected


# case id -> (graph text, update text, the error line).  A field of 640
# digits or fewer is read, then refused for what it says; one of more is
# refused by the digit cap.
DIGIT_CAP = {
    "probe-640": (GRAPH, "Q 0 " + "7" * 640 + "\n",
                  "query probe (0, %s) outside [0, 3)" % ("7" * 640)),
    "probe-minus-640": (GRAPH, "Q 0 -" + "7" * 640 + "\n",
                        "query probe (0, -%s) outside [0, 3)" % ("7" * 640)),
    "probe-641": (GRAPH, "Q 0 " + "7" * 641 + "\n",
                  "line 1: integer field above the digit cap 640"),
    "probe-minus-641": (GRAPH, "Q 0 -" + "7" * 641 + "\n",
                        "line 1: integer field above the digit cap 640"),
    "weight-640": (GRAPH.replace("1 2 3", "1 2 " + "9" * 640), UPDATES,
                   "line 3: weight %s outside [1, 5] on edge (1, 2)" % ("9" * 640)),
    "weight-641": (GRAPH.replace("1 2 3", "1 2 " + "9" * 641), UPDATES,
                   "line 3: integer field above the digit cap 640"),
    "header-641": ("3 2 " + "5" * 641 + "\n0 1 2\n1 2 3\n", UPDATES,
                   "line 1: integer field above the digit cap 640"),
}


@pytest.mark.parametrize("case", list(DIGIT_CAP))
def test_integer_fields_read_the_same_under_every_interpreter_digit_limit(tmp_path, case):
    # 640 is the least limit PYTHONINTMAXSTRDIGITS takes, 4300 the default,
    # and 0 no limit at all.
    graph, updates, message = DIGIT_CAP[case]
    (tmp_path / "g.txt").write_text(graph)
    (tmp_path / "u.txt").write_text(updates)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    runs = set()
    for limit in ("640", None, "0"):
        done = subprocess.run(
            [sys.executable, "-m", "decrsp.cli", "check", "--graph", "g.txt", "--updates",
             "u.txt"], env=env if limit is None else dict(env, PYTHONINTMAXSTRDIGITS=limit),
            capture_output=True, timeout=60, cwd=tmp_path)
        runs.add((done.returncode, done.stdout, done.stderr))
    assert runs == {(1, b"", b"decrsp: error: " + message.encode() + b"\n")}


# header -> the run's (exit code, stdout, stderr) over an empty update file.
HEADERS = {
    "0 0 1": (1, "", "decrsp: error: source 0 is not in the graph\n"),
    "1 0 1": (0, "est 0 0\n", ""),
    "1048577 0 1": (1, "", "decrsp: error: line 1: n=1048577 above the node cap 1048576\n"),
}


@pytest.mark.parametrize("header", list(HEADERS), ids=["no-nodes", "one-node", "cap-plus-one"])
def test_cli_headers_at_their_limits(tmp_path, monkeypatch, header):
    real = decrsp.graph.DynamicGraph

    def small_graph(n, max_weight):  # a header over the cap must never get here
        assert n <= 1, "DynamicGraph(%d) built" % n
        return real(n, max_weight)

    monkeypatch.setattr(decrsp.graph, "DynamicGraph", small_graph)
    assert run_cli(tmp_path, header.encode() + b"\n", b"") == HEADERS[header]


# The range each mode takes, as the README's CLI section states it.  A weight
# field of up to 640 digits and any --epsilon in (0, 1] are read; sssp and
# check then reject weights past the float range, and apsp rejects a span n*W
# that takes more than 4096 (1 + eps/7)-buckets.
FLOAT_RANGE = "edge weights pass the float range"
BUCKETS = "bucket eps too small"
MODES = {"sssp": ("sssp",), "sssp-oracle": ("sssp", "--oracle-check"), "check": ("check",),
         "apsp": ("apsp",), "apsp-oracle": ("apsp", "--oracle-check")}
G4, U4 = "4 3 8\n0 1 8\n1 2 3\n2 3 5\n", "Q 0 3\nD 1 2\nQ 0 3\nI 2 3 8\n"
TWELVE = generate_instance(12, 24, 2**1022, "erdos-renyi", 1.0, 6, increase_rate=0.3)


def weight_case(w):
    return "3 2 %d\n0 1 %d\n1 2 1\n" % (w, w), "Q 0 2\nD 1 2\nQ 0 2\n", "1/2"


# case id -> (graph text, update text, --epsilon, the error of sssp and check,
# the error of apsp); None is a run that reports no failure.
RANGES = {
    "w-1": weight_case(1) + (None, None),
    "w-2p53": weight_case(2**53) + (None, None),
    "w-2p1023": weight_case(2**1023) + (None, BUCKETS),
    "w-2p1024": weight_case(2**1024) + (FLOAT_RANGE, BUCKETS),
    "w-10p639": weight_case(10**639) + (FLOAT_RANGE, BUCKETS),
    # Update 18 of this schedule is the first to cut a node off from the
    # source: inf in every band, so also in those whose unit is past the
    # float range.
    "twelve-nodes-w-2p1022": (TWELVE.dump_graph(), TWELVE.dump_updates(), "1/2", None, BUCKETS),
    "eps-1-7": (G4, U4, "1/7", None, None),
    "eps-300-ones": (G4, U4, "1/" + "1" * 300, None, BUCKETS),
    "eps-320-ones": (G4, U4, "1/" + "1" * 320, None, BUCKETS),
    "eps-640-ones": (G4, U4, "1/" + "1" * 640, None, BUCKETS),
    "eps-1-10p639": (G4, U4, "1/1" + "0" * 639, None, BUCKETS),
    "eps-near-one": (G4, U4, "9" * 639 + "/1" + "0" * 639, None, None),
}


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("case", list(RANGES))
def test_cli_answers_or_rejects_huge_weights_and_tiny_eps(tmp_path, case, mode):
    """A run inside the mode's range reports no failure; one outside it
    prints one error line and exits 1."""
    graph, updates, eps, sssp_error, apsp_error = RANGES[case]
    code, out, err = run_cli(tmp_path, graph.encode(), updates.encode(),
                             MODES[mode] + ("--epsilon", eps))
    error = apsp_error if mode.startswith("apsp") else sssp_error
    if error is None:
        assert (code, err) == (0, "") and out
    else:
        assert (code, out) == (1, "")
        assert err.startswith("decrsp: error: " + error) and err.count("\n") == 1, err


# Pieces the fuzzer writes into valid files: a BOM, NUL, line ends, integers
# and separators outside the grammar, a byte that is not UTF-8, and the
# characters the grammar gives a meaning to.
PIECES = [BOM, b"\x00", b"\r\n", b"\r", "\u0663".encode(), b"+", b"_", "\u00a0".encode(),
          b"\v", b"\f", b"\t", b" ", b"#", b"-", b"\n", b"\xff", b"0", b"1", b"3", b"9",
          b"D", b"I", b"Q"]


@st.composite
def corrupted_files(draw):
    """A valid graph and update file pair on at most 6 nodes, then edited:
    up to three bytes flipped, pieces inserted or bytes deleted, then maybe
    a BOM in front and CRLF line ends."""
    n = draw(st.integers(2, 6))
    sched = generate_instance(n, draw(st.integers(0, n * (n - 1) // 2)), draw(st.integers(1, 9)),
                              "erdos-renyi", 1.0, seed=draw(st.integers(0, 99)),
                              increase_rate=0.3, query_rate=0.4)
    files = [bytearray(sched.dump_graph().encode()), bytearray(sched.dump_updates().encode())]
    for _ in range(draw(st.integers(0, 3))):
        data = files[draw(st.integers(0, 1))]
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["flip", "insert", "delete"]))
        if edit == "insert":
            data[at:at] = draw(st.sampled_from(PIECES) | st.binary(min_size=1, max_size=2))
        elif at < len(data):
            if edit == "flip":
                data[at] ^= 1 << draw(st.integers(0, 7))
            else:
                del data[at]
    for i in range(2):
        if draw(st.booleans()):
            files[i] = files[i].replace(b"\n", b"\r\n")
        if draw(st.booleans()):
            files[i][:0] = BOM
    mode = draw(st.sampled_from([("sssp",), ("apsp",), ("check",), ("sssp", "--oracle-check")]))
    return bytes(files[0]), bytes(files[1]), mode


def test_cli_fuzzed_files_end_in_an_answer_or_one_error_line(tmp_path):
    codes = []

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(corrupted_files())
    def run(case):
        # The arguments are valid, so argparse's exit 2 does not occur here.
        code, _, err = run_cli(tmp_path, *case)
        codes.append(code)
        assert code in (0, 1)
        if code == 0:
            assert err == ""
        else:
            assert err.startswith("decrsp: error: ") and err.count("\n") == 1
            assert err.endswith("\n") and "Traceback" not in err

    run()
    # Hypothesis also draws from the literals of loaded modules, so an edit
    # anywhere can move every draw: fail rather than pass with one outcome.
    assert 0 in codes and 1 in codes, sorted(set(codes))
