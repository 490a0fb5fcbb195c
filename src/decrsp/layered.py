"""Layered range-restricted SSSP and the full-range scaled assembly.

Range-restricted part, over a range parameter R: q < 3 runs an exact
``EsTree`` bounded at ceil(R).  q = 3 runs a ``LayerAssembly``: an exact
tree bounded at D_0 = ceil(R^(2/3)) and a ball system whose set-distance
watchers are exact trees bounded at D_0, whose journal feeds a shortcut
graph at scale delta = ceil(R^(1/3)) covering the whole range ceil(R); the
estimate is the per-node minimum of the two.  The shortcut layer multiplies
the stretch by at most 1 + 2*eps', and eps' = eps / 2 keeps it within 1 + eps.

Full-range part: distance bands [2^i, 2^(i+1)] up to n*W.  Band i rounds
weights up to multiples of the grain phi_i = (eps/3) * 2^i / n and runs its
own tree or assembly with range R = 4n/(eps/3) on that scaled mirror, so it
covers true distances up to 4 * 2^i.  A band with phi_i <= 1 is finer than
the integer weights; when the bands run exact trees, all such bands give way
to one exact band: a tree over the base view itself, bounded at 4 * 2^i* for
the last such band i*, which answers exactly inside that range.  A query
reads one per-node min-heap holding one entry per band.  Band estimates only
grow, so a stored entry is a lower bound on its band's live value; an update
re-keys a touched node's top from the live value until the top is current,
and a query is a single heap read.

The layer count q selects the band structure: q < 3 is a single exact tree
over the whole range (correct, slower), q = 3 the shortcut layer above.  The
default formula gives q < 3 at any realistic desk scale, and the p/q
overrides exist so the shortcut layer can be exercised on small graphs
anyway.  q >= 4 is rejected: more shortcut layers would need set-distance
watchers on zero-weight source edges, which the monotone tree does not
take, and inner instances on scopes too small to sample.
"""

from __future__ import annotations

import heapq
import math
import sys
from fractions import Fraction
from math import inf

from .balls import BallSystem
from .es_tree import EsTree
from .graph import AdjacencyGraph, ChangeRecord, ParamConfigError
from .hopset import ShortcutGraph, derive_params, integer_root_ceil, shortcut_process_update
from .sampling import sample_priorities


LAYER_COUNT_A = 4  # the constant a in default_layer_counts' formula


def default_layer_counts(n, eps):
    """Priority count p and layer count q from the asymptotic formulas.

    p = floor(sqrt(log n) / sqrt(log(8 a^3 log n / eps))), q = floor(sqrt(p)).
    Returns (p, q); q < 3 at any desk scale, which triggers the fallback.
    """
    if n < 4:
        return 0, 0
    log_n = math.log2(n)
    eps = Fraction(eps)
    # log2(eps) from its numerator and denominator: float(eps) may underflow.
    denom = (math.log2(8 * LAYER_COUNT_A**3 * log_n)
             - math.log2(eps.numerator) + math.log2(eps.denominator))
    if denom <= 0:
        return 0, 0
    p = int(math.sqrt(log_n) / math.sqrt(denom))
    q = int(math.sqrt(p)) if p >= 0 else 0
    return p, q


def layer_scales(range_bound, q):
    """Per-layer (delta_k, depth_k) for k = 0..q-2.

    delta_k is the smallest integer whose q-th power reaches R^k and
    depth_k the smallest reaching R^(k+2); the top depth is exactly the
    rounded-up range, so the top layer covers it completely.
    """
    R = Fraction(range_bound)
    scales = []
    for k in range(q - 1):
        delta = integer_root_ceil(R**k, q)
        depth = integer_root_ceil(R ** (k + 2), q)
        scales.append((delta, depth))
    return scales


class StackPlan:
    """What a band derives from its node count, range and eps alone.

    Holds the priority and layer counts, the mode, and in layered mode the
    layer scales, eps' and one shortcut ``ParamSeries``, whose identity
    checks run when the plan is made.  The scaled bands of a
    ``FullRangeSssp`` share the node count, range and eps, so one plan
    serves all of them.  ``denominator`` is the common denominator of a
    band's integer estimates: 1 in exact mode, that of phi otherwise.
    """

    def __init__(self, n, range_bound, eps, p=None, q=None):
        eps = Fraction(eps)
        if not (0 < eps <= 1):
            raise ParamConfigError("need 0 < eps <= 1, got %s" % (eps,))
        self.range_bound = Fraction(range_bound)
        if self.range_bound < n:
            raise ParamConfigError(
                "range %s must be at least the node count %d" % (range_bound, n)
            )
        if p is None or q is None:
            default_p, default_q = default_layer_counts(n, eps)
            p = default_p if p is None else p
            q = default_q if q is None else q
        self.p, self.q = p, q
        self.denominator = 1
        if q < 3:
            self.mode = "exact"
            return
        if q > 3:
            raise ParamConfigError(
                "layer count q=%d unsupported: q < 3 runs exact trees, q = 3 one "
                "shortcut layer" % (q,)
            )
        if p < 2:
            raise ParamConfigError("layered mode needs priority count p >= 2, got %d" % (p,))
        self.mode = "layered"
        self.eps_prime = eps / 2
        self.scales = tuple(layer_scales(self.range_bound, 3))
        (_, ball_depth), (delta, depth) = self.scales
        root_bound = integer_root_ceil(n, p)
        if root_bound * delta > ball_depth:
            raise ParamConfigError(
                "scale ladder too tight at layer 1: %d * %d > %d"
                % (root_bound, delta, ball_depth)
            )
        # The largest weight the shortcut layer's tree will hold: its weight
        # cap, rounded by its grain eps' * delta / (p + 1).
        self.heaviest = (depth + root_bound * delta) * (p + 1) / (self.eps_prime * delta)
        self.params = derive_params(1, 0, 2, 1, self.eps_prime, p, delta, depth, n,
                                    enforce_bound=False)
        self.denominator = self.params.phi.denominator


class LayerAssembly:
    """The shortcut layer of a two-layer band over ``view`` (q = 3).

    ``lower`` is the exact ``EsTree`` bounded at min(depth, D_0).  The ball
    system's set-distance watchers are exact trees bounded at D_0, with ball
    quality alpha = 1.  The shortcut graph runs at scale delta and covers
    ``depth``.  The estimate is the per-node minimum of ``lower`` and the
    shortcut graph.  The sampler's seed is derived from the band ``seed``.

    Estimates are ints over ``denominator``, the denominator of the shortcut
    grain phi = A / B: a lower-tree level d is held as d * B and a shortcut
    level l as l * A, so the minimum compares ints.  ``query(node)`` and
    ``process_update(record) -> [(node, new_estimate)]`` report these ints
    (or inf); they never underestimate and never decrease.
    """

    # Read by benchmarks/tracing.py, as EsTree.mode is (see there).
    mode = "layered"

    def __init__(self, view, root, plan, *, c, seed, debug):
        if max(view.max_weight, plan.heaviest) > sys.float_info.max:
            # A tree adds weights to inf, which is defined only in float range.
            raise ParamConfigError("eps too small for a layered stack: tree weights "
                                   "pass the float range")
        (_, ball_depth), (_, depth) = plan.scales
        self.denominator = plan.denominator
        self.lower = EsTree(view, root, min(depth, ball_depth))
        self.assignment = sample_priorities(view, plan.p, c, seed * 1_000_003 + 1)
        self.balls = BallSystem(view, self.assignment, EsTree, alpha=1, beta=0,
                                depth=ball_depth, bucket_eps=1)
        self.sg = ShortcutGraph(view, self.balls, plan.params, root, debug=debug)
        self._est = {v: self._estimate(v) for v in view.node_ids()}

    def _estimate(self, node):
        return min(self.lower.query(node) * self.denominator, self.sg.scaled_query(node))

    def query(self, node):
        return self._est.get(node, inf)

    def process_update(self, record):
        touched = set()
        for node, _ in self.lower.process_update(record):
            touched.add(node)
        change_set = self.balls.process_update(record)
        for node, _ in shortcut_process_update(self.sg, record, change_set):
            touched.add(node)
        out = []
        for node in sorted(touched):
            value = self._estimate(node)
            old = self._est[node]
            if value != old:
                if value < old:
                    raise AssertionError("layer estimates must never decrease")
                self._est[node] = value
                out.append((node, value))
        return out


class ScaledMirror(AdjacencyGraph):
    """A rounded, scaled copy of a graph view for one distance band.

    Every weight is ``ceil(w / phi)``.  The mirror keeps the view's node ids
    (subgraph views keep their original labels) and allows zero weights (the
    virtual attachment edges of a distance-to-set view scale to zero).  It
    changes only through ``translate``, so its edges are only ever deleted
    or re-weighted upward.
    """

    def __init__(self, view, phi):
        self.phi = Fraction(phi)
        self._num = self.phi.numerator
        self._den = self.phi.denominator
        super().__init__(self.scale(view.max_weight))
        self._nodes = sorted(view.node_ids())
        self._node_set = frozenset(self._nodes)
        for u, v, w in view.edges():
            w = self.scale(w)
            self._adj.setdefault(u, {})[v] = w
            self._adj.setdefault(v, {})[u] = w

    def node_ids(self):
        return iter(self._nodes)

    def node_count(self):
        return len(self._nodes)

    def has_node(self, u):
        return u in self._node_set

    def scale(self, weight):
        """ceil(weight / phi) for an integer weight, in integer arithmetic."""
        return -(-weight * self._den // self._num)

    def translate(self, record):
        """Apply one base change in place; returns the mirror record or None.

        A weight increase whose scaled value is unchanged is absorbed by
        the rounding and produces no mirror traffic.
        """
        u, v = record.u, record.v
        old = self._adj[u][v]
        new = None
        if record.kind == "delete":
            del self._adj[u][v], self._adj[v][u]
        else:
            new = self.scale(record.new_weight)
            if new == old:
                return None
            if new < old:
                raise AssertionError("mirror weight must strictly increase")
            self._adj[u][v] = self._adj[v][u] = new
        return ChangeRecord(record.kind, u, v, old, new)


class FullRangeSssp:
    """Single-source (1+eps)-approximate distances over the full range.

    One scaled mirror per distance band at a third of the requested error
    (two rounding/band factors compose to at most 1 + eps), each read by
    the band's own structure in ``stacks``: an exact ``EsTree`` (q < 3
    after the p/q overrides) or a ``LayerAssembly`` (q = 3).  Per-node
    min-heaps over the per-band estimates make a query exactly one heap
    read.  With exact trees, the bands with phi_i <= 1 are replaced by one
    exact band over ``view`` itself, which has no mirror (``mirrors[0] is
    None``) and covers true distances up to 4 * 2^i* for the last such
    band i*.  With layered bands, every band keeps its mirror.  The scaled
    bands share one ``StackPlan``, so the layer counts, scales and shortcut
    parameters are derived once per instance.

    The grains phi_i = (A/B) * 2^i, with A/B = (eps/3)/n in lowest terms,
    share the denominator B, and every band keeps its estimates as ints
    over the plan's denominator D (1 for exact trees).  So a scaled band's
    integer estimate ``s`` has heap key ``s * (A << i)`` and the exact
    band's estimate ``d`` has key ``d * B``, all ints over B * D.  Each
    node's heap holds exactly one ``(key, band, answer)`` entry per band,
    the answer being ``Fraction(key, B * D)``, built once per push, or the
    plain ``int`` for the exact band.  Entries
    are not updated when their band moves: a stored key only ever lags
    below the live one, so after an update it suffices to replace the top
    of each touched node's heap with its live entry until the top's key is
    live.  Ties go to the lower band.

    Works on any read-protocol view; updates arrive as already-applied
    change records, so instances can also serve as the distance contract
    inside a ball system.
    """

    def __init__(self, view, source, eps, *, p=None, q=None, c=2.0, seed=0, debug=False):
        self.view = view
        self.source = source
        self.eps = Fraction(eps)
        if not (0 < self.eps <= 1):
            raise ParamConfigError("need 0 < eps <= 1, got %s" % (self.eps,))
        if not view.has_node(source):
            raise ParamConfigError("source %r is not in the graph" % (source,))
        self.eps_inner = self.eps / 3
        n = view.node_count()
        self.range_bound = 4 * n / self.eps_inner
        grain = self.eps_inner / n
        unit, grain_den = grain.numerator, grain.denominator
        band_count = max(1, (n * view.max_weight).bit_length())
        # Every scaled band has this node count, range and eps: one plan.
        self.plan = plan = StackPlan(n, self.range_bound, self.eps_inner, p, q)
        fine = 0  # bands with phi_i <= 1, replaced by the exact band
        if plan.mode == "exact":
            while fine < band_count and unit << fine <= grain_den:
                fine += 1
        self.mirrors = []
        self.stacks = []  # per band: its EsTree or LayerAssembly
        self._units = []  # per band: the multiplier from integer estimate to heap key
        if fine:
            self.mirrors.append(None)
            self.stacks.append(EsTree(view, source, 4 << (fine - 1)))
            self._units.append(grain_den)
        for i in range(fine, band_count):
            mirror = ScaledMirror(view, Fraction(unit << i, grain_den))
            if plan.mode == "exact":
                band = EsTree(mirror, source, math.ceil(plan.range_bound))
            else:
                band = LayerAssembly(mirror, source, plan, c=c, seed=seed * 1_000_003 + i,
                                     debug=debug)
            self.mirrors.append(mirror)
            self.stacks.append(band)
            self._units.append(unit << i)
        self._denom = grain_den * plan.denominator
        self.debug = debug
        self.heap_reads = 0
        self._heaps = {}
        for v in view.node_ids():
            entries = [self._entry(b, band.query(v)) for b, band in enumerate(self.stacks)]
            heapq.heapify(entries)
            self._heaps[v] = entries

    def _entry(self, band, estimate):
        """Heap entry ``(key, band, answer)`` for one band's integer estimate."""
        key = estimate * self._units[band]
        if key == inf or self.mirrors[band] is None:
            return (key, band, estimate)
        return (key, band, Fraction(key, self._denom))

    def query(self, node):
        """Current estimate; exactly one heap read."""
        self.heap_reads += 1
        return self._heaps[node][0][2]

    def apply_event(self, event):
        """Apply an update to the owned base graph and digest it."""
        return self.process_update(self.view.apply_update(event))

    def process_update(self, record):
        """Digest one already-applied change; returns sorted changed (node, value)."""
        record = self.view.filter_record(record)
        if record is None:
            return []
        touched = set()
        for mirror, structure in zip(self.mirrors, self.stacks):
            band_record = record if mirror is None else mirror.translate(record)
            if band_record is not None:
                touched.update(node for node, _ in structure.process_update(band_record))
        out = []
        stacks, units = self.stacks, self._units
        for node in sorted(touched):
            heap = self._heaps[node]
            before = heap[0][2]
            while True:
                key, band, _ = heap[0]
                estimate = stacks[band].query(node)
                if key >= estimate * units[band]:
                    break
                heapq.heapreplace(heap, self._entry(band, estimate))
            top = heap[0]
            if self.debug:
                fresh = min(s.query(node) * u for s, u in zip(stacks, units))
                if top[0] != fresh:
                    raise AssertionError(
                        "band heap top %s at node %r is not the least band key %s"
                        % (top[0], node, fresh)
                    )
            if top[2] != before:
                out.append((node, top[2]))
        return out
