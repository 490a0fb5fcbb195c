"""Command-line front end.

Modes:
  sssp   maintain approximate single-source distances through an update
         stream, answering interleaved ``Q u v`` probes from the source row
  apsp   maintain approximate all-pairs distances, answering ``Q u v`` probes
  check  replay the stream under the exact oracle and emit a validation report
  bench  replay without oracle checks and report work counters and wall time

Graph files: header ``n m W`` then one ``u v w`` line per edge.
Update files: lines ``D u v`` (delete), ``I u v w`` (weight increase),
``Q u v`` (query probe).  Reports are line-oriented ``key=value``.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .apsp import ApspState
from .graph import GraphFormatError, ParamConfigError, QueryProbe, UpdateError
from .graph import load_graph, parse_update_stream
from .harness import RunConfig, Schedule, failed_update, run_with_oracle
from .layered import FullRangeSssp


def _load_schedule(graph_path, updates_path):
    with open(graph_path) as fh:
        graph = load_graph(fh)
    items = ()
    if updates_path:
        with open(updates_path) as fh:
            items = tuple(parse_update_stream(fh))
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


def _fmt(value):
    return "inf" if value == float("inf") else str(value)


def _stream_run(schedule, args, out):
    """Replay updates, printing one answer line per query probe.

    An update the graph rejects raises its own ``UpdateError``.  Any other
    exception inside an update is raised again as an ``UpdateError`` that
    names the update, from the original exception.
    """
    graph = schedule.build_graph()
    eps = args.epsilon
    if args.mode == "sssp":
        structure = FullRangeSssp(
            graph, args.source, eps, p=args.p, q=args.q, c=args.c, seed=args.seed
        )
        apply = structure.apply_event
    else:
        structure = ApspState(graph, args.k, eps, args.seed, c=args.c)
        apply = structure.process_update
    updates = 0
    for item in schedule.items:
        if isinstance(item, QueryProbe):
            if args.mode == "sssp":
                if item.u != args.source:
                    out.write("Q %d %d unsupported-source\n" % (item.u, item.v))
                    continue
                answer = structure.query(item.v)
            else:
                answer = structure.query(item.u, item.v)
            out.write("Q %d %d %s\n" % (item.u, item.v, _fmt(answer)))
            continue
        updates += 1
        try:
            apply(item)
        except UpdateError:
            raise
        except Exception as exc:
            raise failed_update(updates, item, exc) from exc
    if args.mode == "sssp":
        for v in sorted(graph.node_ids()):
            out.write("est %d %s\n" % (v, _fmt(structure.query(v))))


def _report_run(schedule, args, out):
    config = RunConfig(
        mode="apsp" if args.mode == "apsp" else "sssp",
        source=args.source,
        eps=args.epsilon,
        k=args.k,
        p=args.p,
        q=args.q,
        c=args.c,
        seed=args.seed,
        oracle_check=(args.mode == "check") or args.oracle_check,
        oracle_stride=args.oracle_stride,
        measure_time=(args.mode == "bench"),
    )
    report = run_with_oracle(schedule, config)
    if args.report:
        report.write_to(args.report)
    out.write(report.render())
    return int(report.get("underestimate_violations")) or int(
        report.get("invariant_failures")
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
    parser.add_argument("mode", choices=("sssp", "apsp", "bench", "check"))
    parser.add_argument("--graph", required=True, help="graph file (n m W header)")
    parser.add_argument("--updates", help="update stream file (D/I/Q lines)")
    parser.add_argument("--epsilon", type=fraction, default="1/2", help="approximation slack")
    parser.add_argument("--source", type=int, default=0)
    parser.add_argument("--k", type=int, default=2, help="priority levels for apsp")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--p", type=int, default=None, help="priority levels override")
    parser.add_argument("--q", type=int, default=None,
                        help="layer count override: q < 3 exact trees, q = 3 one shortcut layer")
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
    if args.mode in ("check", "bench"):
        return _report_run(schedule, args, out)
    if args.oracle_check:
        status = _report_run(schedule, args, out)
        if status:
            return status
    _stream_run(schedule, args, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
