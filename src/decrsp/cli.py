"""Command-line front end.

Modes:
  sssp   maintain approximate single-source distances through an update
         stream, answering interleaved ``Q u v`` probes from the source row
  apsp   maintain approximate all-pairs distances, answering ``Q u v`` probes
  check  replay the stream under the exact oracle and emit a validation report

Graph files: header ``n m W`` then one ``u v w`` line per edge.
Update files: lines ``D u v`` (delete), ``I u v w`` (weight increase),
``Q u v`` (query probe).  Both are read as UTF-8, less a leading
byte-order mark, through the one line reader of :mod:`decrsp.graph`; the
README's CLI section states their grammar.  Reports are line-oriented
``key=value``.

Every mode builds its structure and replays the stream once, through
:func:`decrsp.harness.run_with_oracle`.  ``sssp`` and ``apsp`` write each
answer line to stdout as it is computed, so the lines before a failing
update still appear.  With ``--oracle-check`` the answers are held until
the report is printed, and follow it only when the report shows no failure:
they are the answers the report checked.  ``check`` prints the report alone.
A report that shows a failure exits 1, whatever its count.
"""

from __future__ import annotations

import argparse
import io
import sys
from fractions import Fraction

from .graph import GraphFormatError, ParamConfigError, QueryProbe, UpdateError
from .graph import load_graph, parse_update_stream
from .harness import RunConfig, Schedule, run_with_oracle


def _utf8_lines(path):
    """The lines of file ``path`` read as UTF-8, whatever the locale, less a
    leading byte-order mark; a byte that does not decode is a
    ``GraphFormatError`` naming the file and line."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:  # surrogateescape kept byte b as U+DC00 + b
                raise GraphFormatError("%s: line %d: byte 0x%02x is not UTF-8"
                                       % (path, lineno, ord(line[exc.start]) - 0xDC00)) from None
            yield line


def _load_schedule(graph_path, updates_path):
    graph = load_graph(_utf8_lines(graph_path))
    items = tuple(parse_update_stream(_utf8_lines(updates_path))) if updates_path else ()
    for item in items:
        # Rejected here, not in FullRangeSssp.query: that is one dict read.
        if isinstance(item, QueryProbe) and not (graph.has_node(item.u)
                                                 and graph.has_node(item.v)):
            raise GraphFormatError("query probe (%d, %d) outside [0, %d)"
                                   % (item.u, item.v, graph.node_count()))
    edges = tuple(graph.edges())
    return Schedule(
        n=graph.node_count(),
        w_max=graph.max_weight,
        edges=edges,
        items=items,
        seed=0,
        model="file",
    )


def fraction(text):
    """argparse type: an exact rational such as ``1/2`` or ``0.25``."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(text) from None


def positive_int(text):
    """argparse type: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def positive_float(text):
    """argparse type: a finite float > 0."""
    value = float(text)
    if not 0 < value < float("inf"):  # nan fails both comparisons
        raise ValueError(text)
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="decrsp",
        description="decremental approximate shortest paths under edge "
        "deletions and weight increases",
    )
    parser.add_argument("mode", choices=("sssp", "apsp", "check"))
    parser.add_argument("--graph", required=True, help="graph file (n m W header)")
    parser.add_argument("--updates", help="update stream file (D/I/Q lines)")
    parser.add_argument("--epsilon", type=fraction, default="1/2", help="approximation slack")
    parser.add_argument("--source", type=int, default=0)
    parser.add_argument("--k", type=int, default=2, help="priority levels for apsp")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--p", type=int, default=None,
                        help="priority count of a layered band (needed with --q 3)")
    parser.add_argument("--q", type=int, default=None,
                        help="layer count: 3 runs one shortcut layer, 4 and up are rejected, "
                        "any other value or none runs exact trees")
    parser.add_argument("--c", type=positive_float, default=2.0, help="sampling density")
    parser.add_argument("--oracle-check", action="store_true")
    parser.add_argument("--oracle-stride", type=positive_int, default=1)
    parser.add_argument("--report", help="write the key=value report here")
    return parser


def main(argv=None, out=None):
    """Run one mode; a rejected input prints one error line and returns 1."""
    args = build_parser().parse_args(argv)
    out = out if out is not None else sys.stdout
    try:
        return _run(args, out)
    except (GraphFormatError, UpdateError, ParamConfigError) as exc:
        sys.stderr.write("decrsp: error: %s\n" % (exc,))
        return 1
    except OSError as exc:  # unreadable input or unwritable report file
        detail = exc.strerror or str(exc)
        if exc.filename is not None:
            detail = "%s: %s" % (exc.filename, detail)
        sys.stderr.write("decrsp: error: %s\n" % (detail,))
        return 1


def _run(args, out):
    schedule = _load_schedule(args.graph, args.updates)
    config = RunConfig(mode="apsp" if args.mode == "apsp" else "sssp", source=args.source,
                       eps=args.epsilon, k=args.k, p=args.p, q=args.q, c=args.c, seed=args.seed,
                       oracle_check=args.mode == "check" or args.oracle_check,
                       oracle_stride=args.oracle_stride)
    if not config.oracle_check:
        run_with_oracle(schedule, config, out)
        return 0
    answers = io.StringIO()
    report = run_with_oracle(schedule, config, None if args.mode == "check" else answers)
    if args.report:
        report.write_to(args.report)
    out.write(report.render())
    if report.get("underestimate_violations") or report.get("invariant_failures"):
        return 1
    out.write(answers.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())
