"""Instance generation, oracle-validated runs, and machine-readable reports.

A Schedule couples a start graph with an ordered stream of updates and
interleaved query probes, all derived deterministically from a seed.
``run_with_oracle`` is the one replay of a schedule, for the library and for
every CLI mode: it drives one of the maintained structures (full-range
single-source or all-pairs) through the stream once, writes each
probe's answer line to an optional writer and, when the oracle is on, checks
every probe answer and, at a configurable stride, the source row against
exact distances from two independent shortest-path implementations.  It
records stretch, underestimates, and any invariant failure into a
ValidationReport whose rendering is byte-stable under a fixed seed; the
answers written are the ones the report checked.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import inf, isqrt

from .apsp import ApspState
from .graph import DynamicGraph, QueryProbe, UpdateError, UpdateEvent, update_line
from .layered import FullRangeSssp
from .oracle import cross_checked_distances


class ScheduleError(ValueError):
    """Raised for infeasible instance-generation requests."""


# -- schedules ----------------------------------------------------------------


@dataclass(frozen=True)
class Schedule:
    """A start graph plus an ordered update/query stream, seed-deterministic."""

    n: int
    w_max: int
    edges: tuple  # (u, v, w) triples
    items: tuple  # UpdateEvent | QueryProbe, in replay order
    seed: int
    model: str

    def build_graph(self):
        g = DynamicGraph(self.n, self.w_max)
        for u, v, w in self.edges:
            g.add_edge(u, v, w)
        return g

    def updates(self):
        return [x for x in self.items if isinstance(x, UpdateEvent)]

    def dump_graph(self):
        lines = ["%d %d %d" % (self.n, len(self.edges), self.w_max)]
        lines += ["%d %d %d" % e for e in self.edges]
        return "\n".join(lines) + "\n"

    def dump_updates(self):
        return "".join(update_line(item) + "\n" for item in self.items)


def _unrank_pair(index, n):
    """The index-th pair (u, v) with u < v in lexicographic order.

    Counted from the last pair, row ``n - 2 - r`` holds ``r + 1`` pairs, so
    the last ``r (r + 1) / 2`` pairs fill rows ``n - 1 - r`` and up; invert
    that triangular number with one integer square root.
    """
    back = n * (n - 1) // 2 - 1 - index
    r = (isqrt(8 * back + 1) - 1) // 2
    return n - 2 - r, n - 1 - (back - r * (r + 1) // 2)


def generate_instance(
    n,
    m,
    w_max,
    model,
    deletion_fraction,
    seed,
    *,
    increase_rate=0.0,
    query_rate=0.0,
):
    """Deterministic schedule: ``m`` distinct node pairs drawn uniformly
    (``model`` must be ``"erdos-renyi"``, the one topology), their weights,
    then a shuffled deletion set.

    Weight increases and query probes are sprinkled in front of deletions at
    the given rates; every event is valid at its position by construction
    (generation simulates the live weight table).
    """
    import random

    if not (0 <= deletion_fraction <= 1):
        raise ScheduleError("deletion fraction %r outside [0, 1]" % (deletion_fraction,))
    if model != "erdos-renyi":
        raise ScheduleError("unknown model %r" % (model,))
    total = n * (n - 1) // 2
    if m > total:
        raise ScheduleError("m=%d exceeds %d possible edges for n=%d" % (m, total, n))
    rng = random.Random(seed)
    pairs = sorted(_unrank_pair(i, n) for i in rng.sample(range(total), m))
    edges = tuple((u, v, rng.randint(1, w_max)) for u, v in pairs)
    doomed = rng.sample(range(len(edges)), round(deletion_fraction * len(edges)))
    weight = [w for _, _, w in edges]
    # Indices of the live edges below w_max, ascending (edge order).
    grow = [i for i, w in enumerate(weight) if w < w_max]

    def stop_growing(i):
        at = bisect_left(grow, i)
        if at < len(grow) and grow[at] == i:
            del grow[at]

    items = []
    for index in doomed:
        u, v, _ = edges[index]
        if query_rate and rng.random() < query_rate:
            items.append(QueryProbe(rng.randrange(n), rng.randrange(n)))
        if increase_rate and rng.random() < increase_rate and grow:
            pick = grow[rng.randrange(len(grow))]
            eu, ev, _ = edges[pick]
            new_w = rng.randint(weight[pick] + 1, w_max)
            weight[pick] = new_w
            if new_w == w_max:
                stop_growing(pick)
            items.append(UpdateEvent("increase", eu, ev, new_w))
        stop_growing(index)
        items.append(UpdateEvent("delete", u, v))
    return Schedule(
        n=n,
        w_max=w_max,
        edges=edges,
        items=tuple(items),
        seed=seed,
        model=model,
    )


# -- oracle-validated runs -----------------------------------------------------


@dataclass
class RunConfig:
    mode: str = "sssp"  # "sssp" (FullRangeSssp) | "apsp" (ApspState)
    source: int = 0
    eps: Fraction = Fraction(1, 2)
    k: int = 2
    p: int | None = None
    q: int | None = None
    c: float = 2.0
    seed: int = 0
    oracle_check: bool = True
    oracle_stride: int = 1


@dataclass
class ValidationReport:
    """Line-oriented key=value run summary with a stable field order."""

    fields: list = field(default_factory=list)

    def add(self, key, value):
        self.fields.append((key, value))

    def get(self, key):
        for k, v in self.fields:
            if k == key:
                return v
        raise KeyError(key)

    def render(self):
        return "".join("%s=%s\n" % (k, v) for k, v in self.fields)

    def write_to(self, path):
        with open(path, "w") as fh:
            fh.write(self.render())


def fraction_str(x):
    """``x`` as reports and answer lines print it: ``inf``, or exact, as in ``7/2``."""
    if x == inf:
        return "inf"
    return str(Fraction(x))


def run_with_oracle(schedule, config, out=None):
    """Replay a schedule once through the configured structure.

    Each probe's answer line (``Q u v estimate``, or ``Q u v
    unsupported-source`` when a single-source structure is asked about a
    pair that does not start at its source), and in sssp mode the final
    ``est v estimate`` lines, go to ``out`` when one is given.  With
    ``config.oracle_check`` set, every probe answer is checked against exact
    distances, and every ``oracle_stride`` updates an oracle step recomputes
    the source row with two independent exact implementations (which must
    agree).  One judge checks both: the report records every underestimate
    and every stretch over the bound with its update index and its node or
    pair, and the worst stretch of a source row.  Every answer read, of a
    source row or a probe, is also held against the last one read for its
    pair: an answer below it is an ``answer_decrease`` entry, and counts in
    ``invariant_failures`` too.  Inside an update an
    ``AssertionError`` is then an invariant failure that ends the replay.
    Any other exception but ``UpdateError``, and without the oracle an
    ``AssertionError`` too, is raised again as an ``UpdateError`` naming the
    update, from the original exception.
    """
    graph = schedule.build_graph()
    eps = Fraction(config.eps)
    if config.mode == "sssp":
        structure = FullRangeSssp(graph, config.source, eps, p=config.p, q=config.q, c=config.c,
                                  seed=config.seed)
        bound = 1 + eps

        def answer(u, v):
            return structure.query(v)
    elif config.mode == "apsp":
        structure = ApspState(graph, config.k, eps, config.seed, c=config.c)
        bound = (2 + eps) ** config.k - 1
        answer = structure.query
    else:
        raise ValueError("unknown mode %r" % (config.mode,))
    write = out.write if out is not None else lambda line: None
    digest = hashlib.sha256()

    max_stretch = Fraction(0)
    underestimates = []
    invariant_failures = []
    last_read = {}  # (u, v) -> the last answer read for the pair
    decreases = []
    oracle_checks = 0
    update_index = 0
    query_answers = 0

    def judge(subject, est, d):
        """Record ``est`` against the exact distance ``d`` as an underestimate
        or a stretch over the bound; return its stretch, 0 where ``d`` is 0,
        inf or above ``est``."""
        if est < d:
            underestimates.append("index=%d %s est=%s dist=%s"
                                  % (update_index, subject, fraction_str(est), fraction_str(d)))
            return 0
        if d in (0, inf):
            return 0
        stretch = Fraction(est) / d
        if stretch > bound:
            invariant_failures.append("index=%d %s stretch=%s"
                                      % (update_index, subject, fraction_str(stretch)))
        return stretch

    def read(u, v):
        """The answer for (u, v), recorded as a decrease if it is below the
        last one read for the pair."""
        est = answer(u, v)
        prev = last_read.get((u, v), est)
        if est < prev:
            decreases.append("index=%d pair=%d,%d est=%s prev=%s" % (
                update_index, u, v, fraction_str(est), fraction_str(prev)))
        last_read[u, v] = est
        return est

    def oracle_step():
        nonlocal max_stretch, oracle_checks
        oracle_checks += 1
        dist = cross_checked_distances(graph, config.source)
        for v in graph.node_ids():
            stretch = judge("node=%d" % v, read(config.source, v), dist.get(v, inf))
            max_stretch = max(max_stretch, stretch)

    if config.oracle_check:
        oracle_step()

    for item in schedule.items:
        if isinstance(item, QueryProbe):
            query_answers += 1
            if config.mode == "sssp" and item.u != config.source:
                write("Q %d %d unsupported-source\n" % (item.u, item.v))
                continue
            est = read(item.u, item.v)
            line = "Q %d %d %s\n" % (item.u, item.v, fraction_str(est))
            write(line)
            digest.update(line.encode())
            if config.oracle_check:
                judge("pair=%d,%d" % (item.u, item.v), est,
                      cross_checked_distances(graph, item.u).get(item.v, inf))
            continue
        update_index += 1
        try:
            if config.mode == "apsp":
                structure.process_update(item)
                changed = ()
            else:
                changed = structure.apply_event(item)
        except UpdateError:
            raise
        except Exception as exc:
            if not (config.oracle_check and isinstance(exc, AssertionError)):
                raise UpdateError("update %d (%s) failed: %s: %s" % (
                    update_index, update_line(item), type(exc).__name__, exc)) from exc
            invariant_failures.append("index=%d assert=%s" % (update_index, exc))
            break
        for node, value in changed:
            digest.update(("U %d %d %s\n" % (update_index, node, fraction_str(value))).encode())
        if config.oracle_check and update_index % config.oracle_stride == 0:
            oracle_step()

    report = ValidationReport()
    report.add("mode", config.mode)
    report.add("model", schedule.model)
    report.add("n", schedule.n)
    report.add("m", len(schedule.edges))
    report.add("w_max", schedule.w_max)
    report.add("schedule_seed", schedule.seed)
    report.add("algorithm_seed", config.seed)
    report.add("eps", fraction_str(config.eps))
    report.add("stretch_bound", fraction_str(bound))
    report.add("updates_processed", update_index)
    report.add("oracle_checks", oracle_checks)
    report.add("query_answers", query_answers)
    report.add("max_stretch", fraction_str(max_stretch))
    report.add("underestimate_violations", len(underestimates))
    for entry in underestimates:
        report.add("underestimate", entry)
    report.add("answer_decreases", len(decreases))
    for entry in decreases:
        report.add("answer_decrease", entry)
    report.add("invariant_failures", len(invariant_failures) + len(decreases))
    for entry in invariant_failures:
        report.add("invariant_failure", entry)
    for key, value in sorted(collect_work_counters(config.mode, structure).items()):
        report.add("work_%s" % key, value)
    report.add("emissions_sha256", digest.hexdigest())
    # Read after the report, so that its work counters leave these reads out.
    # An assert that ended the replay poisoned the structure; a run with an
    # invariant failure prints its report alone.
    if out is not None and config.mode == "sssp" and not invariant_failures:
        for v in graph.node_ids():
            write("est %d %s\n" % (v, fraction_str(structure.query(v))))
    return report


def collect_work_counters(mode, structure):
    """Event-count totals per structural component (no timers)."""
    stats = structure.stats()
    if mode == "sssp":
        return {
            "es_edge_scans": stats["es_edge_scans"],
            "monotone_heap_ops": stats["monotone_heap_ops"],
            "query_heap_reads": stats["heap_reads"],
        }
    return {"apsp_heap_pairs": stats["heap_pairs"], "ball_rebuilds": stats["ball_rebuilds"]}
