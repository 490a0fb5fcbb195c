"""Instance generation, oracle-validated runs, and machine-readable reports.

A Schedule couples a start graph with an ordered stream of updates and
interleaved query probes, all derived deterministically from a seed.
``run_with_oracle`` is the one replay of a schedule, for the library and for
every CLI mode: it drives one of the maintained structures (exact tree,
full-range single-source, all-pairs) through the stream once, writes each
probe's answer line to an optional writer and, when the oracle is on, checks
every probe answer and, at a configurable stride, the source row against
exact distances from two independent shortest-path implementations.  It
records stretch, underestimates, and any invariant failure into a
ValidationReport whose rendering is byte-stable under a fixed seed; the
answers written are the ones the report checked.

``static_hopset_check`` is the one-shot verification oracle for the
shortcut-edge idea itself: it builds distance-weighted ball edges over a
frozen priority sampling, runs hop-limited Bellman-Ford on the augmented
graph, and asserts the hop/weight trade-off pair by pair.  It lives here,
in the validation path, not in the maintained-structure path.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, inf, isqrt

from .apsp import ApspState
from .es_tree import EsTree
from .graph import DynamicGraph, QueryProbe, UpdateError, UpdateEvent, update_line
from .layered import FullRangeSssp
from .oracle import cross_checked_distances
from .sampling import sample_priorities


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


def _edge_topology(n, m, model, rng):
    if model == "erdos-renyi":
        total = n * (n - 1) // 2
        if m > total:
            raise ScheduleError("m=%d exceeds %d possible edges for n=%d" % (m, total, n))
        picks = rng.sample(range(total), m)
        return sorted(_unrank_pair(i, n) for i in picks)
    if model == "path":
        return [(i, i + 1) for i in range(n - 1)]
    if model == "grid":
        side = max(1, int(n**0.5))
        pairs = []
        for idx in range(n):
            r, c = divmod(idx, side)
            if c + 1 < side and idx + 1 < n:
                pairs.append((idx, idx + 1))
            if idx + side < n:
                pairs.append((idx, idx + side))
        return pairs
    if model == "power-law":
        if n < 3:
            raise ScheduleError("power-law model needs n >= 3")
        pairs = {(0, 1), (0, 2), (1, 2)}
        stubs = [0, 1, 2, 0, 1, 2]  # degree-proportional attachment pool
        for v in range(3, n):
            t = stubs[rng.randrange(len(stubs))]
            pairs.add((min(t, v), max(t, v)))
            stubs += [t, v]
        total = n * (n - 1) // 2
        while len(pairs) < min(m, total):
            pairs.add(_unrank_pair(rng.randrange(total), n))
        return sorted(pairs)
    raise ScheduleError("unknown model %r" % (model,))


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
    """Deterministic schedule: topology, weights, then a shuffled deletion set.

    Weight increases and query probes are sprinkled in front of deletions at
    the given rates; every event is valid at its position by construction
    (generation simulates the live weight table).
    """
    import random

    if not (0 <= deletion_fraction <= 1):
        raise ScheduleError("deletion fraction %r outside [0, 1]" % (deletion_fraction,))
    rng = random.Random(seed)
    pairs = _edge_topology(n, m, model, rng)
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
    mode: str = "sssp"  # "es" | "sssp" | "apsp"
    source: int = 0
    eps: Fraction = Fraction(1, 2)
    k: int = 2
    p: int | None = None
    q: int | None = None
    c: float = 2.0
    seed: int = 0
    oracle_check: bool = True
    oracle_stride: int = 1
    debug: bool = False


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
    agree); the report records the worst stretch and every underestimate
    with its update index and witness pair.  Inside an update an
    ``AssertionError`` is then an invariant failure that ends the replay.
    Any other exception but ``UpdateError``, and without the oracle an
    ``AssertionError`` too, is raised again as an ``UpdateError`` naming the
    update, from the original exception.
    """
    graph = schedule.build_graph()
    eps = Fraction(config.eps)
    if config.mode == "es":
        structure, bound = EsTree(graph, config.source, inf), Fraction(1)
    elif config.mode == "sssp":
        structure = FullRangeSssp(graph, config.source, eps, p=config.p, q=config.q, c=config.c,
                                  seed=config.seed, debug=config.debug)
        bound = 1 + eps
    elif config.mode == "apsp":
        structure = ApspState(graph, config.k, eps, config.seed, c=config.c, debug=config.debug)
        bound = (2 + eps) ** config.k - 1
    else:
        raise ValueError("unknown mode %r" % (config.mode,))
    write = out.write if out is not None else lambda line: None
    digest = hashlib.sha256()

    max_stretch = Fraction(0)
    underestimates = []
    invariant_failures = []
    oracle_checks = 0
    update_index = 0
    query_answers = 0

    def estimates_for_oracle():
        if config.mode == "apsp":
            return {v: structure.query(config.source, v) for v in graph.node_ids()}
        return {v: structure.query(v) for v in graph.node_ids()}

    def oracle_step():
        nonlocal max_stretch, oracle_checks
        oracle_checks += 1
        dist = cross_checked_distances(graph, config.source)
        reported = estimates_for_oracle()
        for v in graph.node_ids():
            d = dist.get(v, inf)
            est = reported[v]
            if est < d:
                underestimates.append("index=%d node=%d est=%s dist=%s"
                                      % (update_index, v, fraction_str(est), fraction_str(d)))
                continue
            if d == inf:
                if est != inf:
                    invariant_failures.append(
                        "index=%d node=%d finite_estimate_for_unreachable" % (update_index, v)
                    )
                continue
            if d > 0:
                stretch = Fraction(est) / d
                if stretch > bound:
                    invariant_failures.append(
                        "index=%d node=%d stretch=%s" % (update_index, v, fraction_str(stretch))
                    )
                max_stretch = max(max_stretch, stretch)

    def check_probe(probe, est):
        d = cross_checked_distances(graph, probe.u).get(probe.v, inf)
        if est < d:
            underestimates.append(
                "index=%d pair=%d,%d est=%s dist=%s"
                % (update_index, probe.u, probe.v, fraction_str(est), fraction_str(d))
            )
        elif d not in (0, inf) and Fraction(est) / d > bound:
            invariant_failures.append(
                "index=%d pair=%d,%d stretch=%s"
                % (update_index, probe.u, probe.v, fraction_str(Fraction(est) / d))
            )

    if config.oracle_check:
        oracle_step()

    for item in schedule.items:
        if isinstance(item, QueryProbe):
            query_answers += 1
            if config.mode == "apsp":
                est = structure.query(item.u, item.v)
            elif item.u == config.source:
                est = structure.query(item.v)
            else:
                write("Q %d %d unsupported-source\n" % (item.u, item.v))
                continue
            line = "Q %d %d %s\n" % (item.u, item.v, fraction_str(est))
            write(line)
            digest.update(line.encode())
            if config.oracle_check:
                check_probe(item, est)
            continue
        update_index += 1
        try:
            if config.mode == "apsp":
                structure.process_update(item)
                changed = ()
            elif config.mode == "sssp":
                changed = structure.apply_event(item)
            else:
                changed = structure.process_update(graph.apply_update(item))
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
    report.add("invariant_failures", len(invariant_failures))
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
    if mode == "es":
        return {"es_edge_scans": structure.work_counter}
    stats = structure.stats()
    if mode == "sssp":
        return {
            "es_edge_scans": stats["es_edge_scans"],
            "monotone_heap_ops": stats["monotone_heap_ops"],
            "query_heap_reads": stats["heap_reads"],
        }
    return {"apsp_heap_pairs": stats["heap_pairs"], "ball_rebuilds": stats["ball_rebuilds"]}


# -- static shortcut-edge verification ------------------------------------------


def _bounded_hop_distances(size, indexed_edges, source_index, rounds):
    """Weights of cheapest <= h-edge paths for h = 0..rounds, per node index.

    Returns a list of per-round weight arrays (round h at position h); plain
    dynamic programming, exact by construction.  Once a round changes nothing
    the remaining rounds are identical, so the last array stands for them.
    """
    cur = [inf] * size
    cur[source_index] = 0
    table = [cur]
    for _ in range(rounds):
        new = list(cur)
        for x, v, w in indexed_edges:
            cand = cur[x] + w
            if cand < new[v]:
                new[v] = cand
        if new == cur:
            break
        cur = new
        table.append(cur)
    return table


def static_hopset_check(graph, p, delta, eps, seed, *, c=2.0):
    """One-shot verification of the shortcut-edge hop/weight trade-off.

    Builds exact balls over a frozen priority sampling, adds one
    distance-weighted edge per (owner, member) pair, and verifies by
    hop-limited Bellman-Ford that every connected pair (u, v) reaches
    weight <= (1+eps)*dist + 2*(2 + 2/eps)^(p-2)*delta within
    p*ceil(dist/delta) hops -- and hence weight <= (1+2*eps)*dist for pairs
    far enough that the additive term is dominated.  Returns a stable-order
    report dict; raises AssertionError on any violated pair.
    """
    eps = Fraction(eps)
    if not (0 < eps <= 1 and p >= 2 and delta >= 1):
        raise AssertionError("need 0 < eps <= 1, p >= 2 and delta >= 1")
    nodes = sorted(graph.node_ids())
    dist = {u: cross_checked_distances(graph, u) for u in nodes}
    assignment = sample_priorities(graph, p, c, seed)

    shortcut_edges = {}
    max_ball_size = 0
    for u in nodes:
        i = assignment.priority_of(u)
        above = assignment.level_sets[i + 1]
        horizon = min((dist[u].get(a, inf) for a in above), default=inf)
        ball = {v for v, d in dist[u].items() if d < horizon}
        max_ball_size = max(max_ball_size, len(ball))
        for v in ball:
            if v != u:
                # distance weights are symmetric, so (u, v) and (v, u)
                # collapse to one undirected shortcut
                shortcut_edges[(min(u, v), max(u, v))] = dist[u][v]

    index_of = {v: i for i, v in enumerate(nodes)}
    directed = []
    for u, v, w in graph.edges():
        directed.append((index_of[u], index_of[v], w))
        directed.append((index_of[v], index_of[u], w))
    for (u, v), w in shortcut_edges.items():
        directed.append((index_of[u], index_of[v], w))
        directed.append((index_of[v], index_of[u], w))

    additive = 2 * (2 + 2 / eps) ** (p - 2) * delta
    covered_floor = additive / eps  # beyond this the additive term is dominated
    max_hop_budget = 0
    finite_pairs = 0
    covered_pairs = 0
    worst_needed_hops = 0
    for u in nodes:
        finite = {v: d for v, d in dist[u].items() if v != u and d != inf}
        if not finite:
            continue
        budgets = {v: p * ceil(Fraction(d) / delta) for v, d in finite.items()}
        rounds = max(budgets.values())
        max_hop_budget = max(max_hop_budget, rounds)
        table = _bounded_hop_distances(len(nodes), directed, index_of[u], rounds)
        for v, budget in budgets.items():
            d = finite[v]
            finite_pairs += 1
            vi = index_of[v]
            curve = [row[vi] for row in table]
            at_budget = curve[min(budget, len(curve) - 1)]
            if at_budget > (1 + eps) * d + additive:
                raise AssertionError(
                    "pair (%d, %d): weight %s at %d hops exceeds additive allowance"
                    % (u, v, at_budget, budget)
                )
            if d >= covered_floor:
                covered_pairs += 1
                target = (1 + 2 * eps) * d
                if at_budget > target:
                    raise AssertionError(
                        "pair (%d, %d): weight %s at %d hops exceeds (1+2eps)*dist=%s"
                        % (u, v, at_budget, budget, target)
                    )
                needed = next(h for h, w in enumerate(curve) if w <= target)
                worst_needed_hops = max(worst_needed_hops, needed)

    return {
        "n": len(nodes),
        "p": p,
        "delta": delta,
        "eps": str(eps),
        "shortcut_edges": len(shortcut_edges),
        "max_ball_size": max_ball_size,
        "finite_pairs": finite_pairs,
        "covered_pairs": covered_pairs,
        "additive_allowance": str(additive),
        "max_hop_budget": max_hop_budget,
        "worst_needed_hops": worst_needed_hops,
    }
