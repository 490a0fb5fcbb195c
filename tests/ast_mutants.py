"""Operator mutants of one library module, generated, and their runner.

    python tests/ast_mutants.py MODULE [TEST_FILE ...]

MODULE names a module of ``src/decrsp`` (``monotone_tree``, or
``monotone_tree.py``).  Each comparison operator in it (``<``/``<=``,
``>``/``>=``, ``==``/``!=``, ``in``/``not in``) and each binary ``+``/``-``
is flipped once, one mutant per site, in source order.  Only operators are
flipped: Hypothesis draws some values from the literals of loaded local
modules, so an edited literal could move every derandomized draw.  Each
mutant runs the test files (by default every ``tests/test_*.py`` that
imports from ``decrsp.MODULE``, the module's own test file first, or the
whole suite if none does) with ``-x`` on a copy of the repository in a
temporary directory; a mutant under which they all pass is a survivor,
and is printed with its line and its operator.  The exit status is 1 if
any survive.  The hand-written catalogue is ``tests/mutants.py``; like it,
this runner is not part of the tier-1 suite, and pytest does not collect
it.
"""

from __future__ import annotations

import ast
import io
import re
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

from mutants import PYTEST, ROOT, copy_repository

FLIP = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
        "in": "not in", "not in": "in", "+": "-", "-": "+"}
TIMEOUT = 600  # seconds per mutant; a mutant that runs longer counts as killed


def operator_sites(text):
    """``(line, start col, end col, operator)`` of every flippable operator,
    in source order.  An operator is found as the tokens between its two
    operands, so parentheses around an operand do not hide it."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(text).readline)
              if t.type in (tokenize.OP, tokenize.NAME)]
    gaps = []  # (end of the left operand, start of the right one)
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            gaps += [(a, b) for a, b in zip(operands, operands[1:])]
        elif isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            gaps.append((node.left, node.right))
    sites = []
    for left, right in gaps:
        lo, hi = (left.end_lineno, left.end_col_offset), (right.lineno, right.col_offset)
        between = [t for t in tokens if lo <= t.start and t.end <= hi and t.string not in "()"]
        op = " ".join(t.string for t in between)
        if op in FLIP and between[0].start[0] == between[-1].end[0]:
            sites.append((between[0].start[0], between[0].start[1], between[-1].end[1], op))
    return sorted(sites)


def mutate(text, site):
    """``text`` with the operator at ``site`` flipped."""
    line, start, end, op = site
    lines = text.splitlines(keepends=True)
    row = lines[line - 1]
    lines[line - 1] = row[:start] + FLIP[op] + row[end:]
    return "".join(lines)


def importers(module):
    """The test files that import from ``decrsp.<module>``, its own
    ``tests/test_<module>.py`` first, as it fails fastest."""
    pattern = re.compile(r"^\s*(from decrsp\.%s import|import decrsp\.%s\b)" % (module, module),
                         re.MULTILINE)
    own = "tests/test_%s.py" % module
    return sorted(("tests/" + path.name for path in (ROOT / "tests").glob("test_*.py")
                   if pattern.search(path.read_text())), key=lambda path: (path != own, path))


def main(argv):
    if not argv:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    module = argv[0].removesuffix(".py")
    source = ROOT / "src" / "decrsp" / (module + ".py")
    if not source.is_file():
        print("no module %s" % source, file=sys.stderr)
        return 2
    tests = argv[1:] or importers(module)
    text = source.read_text()
    sites = operator_sites(text)
    survivors = 0
    with tempfile.TemporaryDirectory(prefix="decrsp-ast-mutant-") as tmp:
        copy = Path(tmp)
        env = copy_repository(copy)
        target = copy / "src" / "decrsp" / source.name
        for site in sites:
            target.write_text(mutate(text, site))
            try:
                done = subprocess.run([*PYTEST, "-x", *tests], cwd=copy, env=env,
                                      capture_output=True, timeout=TIMEOUT)
                alive = done.returncode == 0
            except subprocess.TimeoutExpired:
                alive = False
            line, _, _, op = site
            label = "%s:%d %s -> %s" % (source.name, line, op, FLIP[op])
            print("%-40s %s" % (label, "SURVIVED" if alive else "killed"), flush=True)
            survivors += alive
    print("%d of %d mutants survived (tests: %s)" % (survivors, len(sites), " ".join(tests)))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
