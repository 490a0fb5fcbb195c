"""Layered range-restricted SSSP and the full-range scaled assembly.

A band over a range R is an exact ``EsTree`` bounded at ceil(R) by
default, and a ``LayerAssembly`` (one shortcut layer) when the layer count
q = 3 is given with a priority count p >= 2; ``StackPlan`` says why exact
trees are the default.  q >= 4 is rejected: more shortcut layers would need
set-distance watchers on zero-weight source edges, which the monotone tree
does not take, and inner instances on scopes too small to sample.
``FullRangeSssp`` runs one band per distance scale on a rounded, scaled
mirror and keeps one answer per node; its docstring states the band rules
and why they keep the bound and move no answer.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from math import inf

from .balls import BallSystem
from .es_tree import EsTree
from .graph import AdjacencyGraph, ChangeRecord, ParamConfigError, UpdateError, dijkstra_bounded
from .hopset import ShortcutGraph, derive_params, integer_root_ceil, shortcut_process_update
from .sampling import sample_priorities


POISONED = "structure poisoned: an earlier update failed after the graph changed"


def check_float_range(weight, what):
    """Reject a tree weight past the float range: a tree adds weights to
    inf, which is defined only within it."""
    if weight > sys.float_info.max:
        raise ParamConfigError("%s pass the float range" % (what,))


def layer_scales(range_bound):
    """Per-layer (delta_k, depth_k) for k = 0, 1 of a q = 3 band.

    delta_k is the smallest integer whose cube reaches R^k and depth_k the
    smallest reaching R^(k+2); the top depth is exactly the rounded-up
    range, so the top layer covers it completely.
    """
    R = Fraction(range_bound)
    scales = []
    for k in range(2):
        delta = integer_root_ceil(R**k, 3)
        depth = integer_root_ceil(R ** (k + 2), 3)
        scales.append((delta, depth))
    return scales


class StackPlan:
    """What a band derives from its node count, range and eps alone.

    Holds the priority count p as given, the mode that the layer count q
    selects, and in layered mode the layer scales, eps' and one shortcut
    ``ParamSeries``, whose identity checks run when the plan is made.  The
    scale-ladder check and ``heaviest`` (the shortcut tree's largest weight,
    which must stay in float range) read the series' root bound, weight cap
    and grain instead of deriving them again.  The scaled bands of a
    ``FullRangeSssp`` share the node count, range and eps, so one plan serves
    all of them.  ``denominator`` is the common denominator of a band's
    integer estimates: 1 in exact mode, that of phi otherwise.

    q = 3 selects one shortcut layer and needs p >= 2; q >= 4 is rejected;
    any other q, None included, selects exact trees.  The paper's counts,
    p = floor(sqrt(log n) / sqrt(log(8 a^3 log n / eps))) with a = 4 and
    q = floor(sqrt(p)), reach q = 3 only once log2 n passes 1591 at eps = 1
    (1678 at eps = 1/2), so at any size a graph can have they select exact
    trees: that is why the default is exact, not a formula of n and eps.
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
        if q is not None and q > 3:
            raise ParamConfigError(
                "layer count q=%d unsupported: q < 3 runs exact trees, q = 3 one "
                "shortcut layer" % (q,)
            )
        self.p = p
        self.mode = "layered" if q == 3 else "exact"
        self.denominator = 1
        if self.mode == "exact":
            return
        if p is None or p < 2:
            raise ParamConfigError("layered mode needs priority count p >= 2, got %s" % (p,))
        self.eps_prime = eps / 2
        self.scales = tuple(layer_scales(self.range_bound))
        (_, ball_depth), (delta, depth) = self.scales
        self.params = params = derive_params(1, 0, 2, 1, self.eps_prime, p, delta, depth, n)
        if params.root_bound * delta > ball_depth:
            raise ParamConfigError(
                "scale ladder too tight at layer 1: %d * %d > %d"
                % (params.root_bound, delta, ball_depth)
            )
        # The largest weight the shortcut layer's tree will hold: its weight
        # cap, rounded by its grain.
        self.heaviest = params.weight_cap / params.phi
        self.denominator = params.phi.denominator


class LayerAssembly:
    """The shortcut layer of a two-layer band over ``view`` (q = 3).

    From ``plan.scales``: D_0 = ceil(R^(2/3)), delta = ceil(R^(1/3)) and
    depth = ceil(R).  ``lower`` is the exact ``EsTree`` bounded at
    min(depth, D_0).  The ball system's set-distance watchers are
    exact trees bounded at D_0, with ball quality alpha = 1.  Its journal
    feeds a shortcut graph at scale delta that covers ``depth``.  The
    estimate is the per-node minimum of ``lower`` and the shortcut graph, so
    the stretch is at most 1 + 2 eps', and eps' = eps / 2 keeps it within
    1 + eps.  The sampler's seed is derived from the band ``seed``.

    Estimates are ints over ``denominator``, the denominator of the shortcut
    grain phi = A / B: a lower-tree level d is held as d * B and a shortcut
    level l as l * A, so the minimum compares ints.  ``query(node)`` and
    ``process_update(record) -> [(node, new_estimate)]`` report these ints
    (or inf); they never underestimate and never decrease.
    """

    # Read by benchmarks/tracing.py, as EsTree.mode is (see there).
    mode = "layered"

    def __init__(self, view, root, plan, *, c, seed):
        check_float_range(max(view.max_weight, plan.heaviest),
                          "eps too small for a layered stack: tree weights")
        (_, ball_depth), (_, depth) = plan.scales
        self.denominator = plan.denominator
        self.lower = EsTree(view, root, min(depth, ball_depth))
        assignment = sample_priorities(view, plan.p, c, seed * 1_000_003 + 1)
        self.balls = BallSystem(view, assignment, EsTree, alpha=1,
                                depth=ball_depth, bucket_eps=1)
        self.sg = ShortcutGraph(view, self.balls, plan.params, root)
        self._est = {v: self._estimate(v) for v in view.node_ids()}

    def _estimate(self, node):
        return min(self.lower.query(node) * self.denominator, self.sg.scaled_query(node))

    def query(self, node):
        return self._est.get(node, inf)

    def holds_only_root(self):
        """Whether every estimate but the root's is inf: both trees hold the
        root alone.  Their levels never fall, so it then stays so."""
        return self.lower.holds_only_root() and len(self.sg.tree.level) == 1

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

    Every weight is ``ceil(w / phi)``, and each row lists the view's
    neighbours in the view's order.  The mirror answers ``node_ids``,
    ``node_count`` and ``has_node`` from the view, whose node set never
    changes, so it keeps the view's labels and holds no copy of its nodes.
    It allows zero weights (the virtual attachment edges of a
    distance-to-set view scale to zero).  It changes only through
    ``translate``, so its edges are only ever deleted or re-weighted upward.
    """

    def __init__(self, view, phi):
        self.view = view
        self.phi = Fraction(phi)
        self._num = self.phi.numerator
        self._den = self.phi.denominator
        super().__init__(self.scale(view.max_weight))
        for u in view.node_ids():
            row = {v: self.scale(w) for v, w in view.neighbors(u)}
            if row:
                self._adj[u] = row

    def node_ids(self):
        return self.view.node_ids()

    def node_count(self):
        return self.view.node_count()

    def has_node(self, u):
        return self.view.has_node(u)

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
        if record.kind != "delete":
            new = self.scale(record.new_weight)
            if new == old:
                return None
            if new < old:
                raise AssertionError("mirror weight must strictly increase")
        scaled = ChangeRecord(record.kind, u, v, old, new)
        self.apply_record(scaled)
        return scaled


def _band_counts(n, max_weight, eps):
    """The band count of ``band_layout`` and how many bands are fine."""
    bands = max(1, (n * max_weight).bit_length())
    # phi_i = (eps/3) * 2^i / n <= 1 exactly when 2^i <= floor(3n / eps),
    # that is, when i < floor(3n / eps).bit_length().
    return bands, min(bands, (3 * n * eps.denominator // eps.numerator).bit_length())


def band_layout(n, max_weight, eps):
    """``(grain, bands, fine, depth)`` of a ``FullRangeSssp`` at ``eps`` on
    ``n`` nodes with weights up to ``max_weight``: the grain A/B = (eps/3)/n,
    the band count, how many bands have phi_i = (A/B) * 2^i <= 1, and the
    depth 4 * 2^i* of the exact band that replaces them (None if none)."""
    eps = Fraction(eps)
    bands, fine = _band_counts(n, max_weight, eps)
    return eps / 3 / n, bands, fine, 4 << (fine - 1) if fine else None


def exact_band_depth(n, max_weight, eps):
    """The depth of the one ``EsTree`` that a default ``FullRangeSssp`` (same
    arguments as ``band_layout``, with ``eps`` a ``Fraction``) would be,
    answering its levels, when every band is fine; None otherwise.  It counts
    in integers and keeps no memo: the all-pairs factory asks it once per
    contract build, and the count costs about what a cache lookup would."""
    bands, fine = _band_counts(n, max_weight, eps)
    return 4 << (bands - 1) if fine == bands else None


class FullRangeSssp:
    """Single-source (1+eps)-approximate distances over the full range.

    Band i covers the distance scale [2^i, 2^(i+1)], for i = 0..T with
    2^(T+1) > n * W.  It rounds weights up to multiples of the grain phi_i =
    (eps/3) * 2^i / n on its own scaled mirror, and runs its own tree or
    assembly there with range R = 4n/(eps/3), so it covers true distances up
    to 4 * 2^i.  Each band's structure is read directly in ``stacks``.
    Each node keeps one answer, so a query is exactly one dict read.  The
    scaled bands share one ``StackPlan``, so the layer scales and shortcut
    parameters are derived once per instance.

    With exact trees (any q but 3, the default) every band is built: an
    ``EsTree`` per band, except that the bands with phi_i <= 1 are finer
    than the integer weights, with nothing to round.  They give way to one
    exact band over ``view`` itself, with no mirror (``mirrors[0] is None``),
    covering true distances up to 4 * 2^i* for the last such band i*.  When
    every band is that fine, it is the whole instance (``exact_band_depth``).

    With layered bands (q = 3) only the bands that some answer needs are
    built.  ``stacks[0]`` is the sentinel: an exact ``EsTree`` bounded at
    ceil(R) on the top band T's mirror, which is what exact trees run there.
    The rest of ``stacks`` holds, in order, the ``LayerAssembly`` of each
    band i of the run 0..J that has not been retired (see below).  A band
    *holds* a node while its estimate is at most its range R on its mirror
    (4 * 2^i in true distance); the sentinel holds every node it has finite.
    The run starts at the smallest J at which every node the sentinel holds
    is held by some band of the run, and J never passes T - 1.  When an
    update leaves a node held by the sentinel alone, bands J + 1, J + 2, ...
    (``_next_band`` is the next) are built from the current graph until one
    holds it, inside that update, before any answer moves.

    Why that keeps the bound, for a node at true distance d >= 1 (the
    source answers 0 in every band; an unreachable node is at inf in all):

    * No band estimate is below d: a mirror rounds weights up, and neither
      an exact tree nor an assembly underestimates on its mirror.
    * A band i that holds the node with 2^i <= d is within 1 + eps of d.
      Its estimate is at most R, so the node's mirror distance is too.
      Rounding adds at most phi_i per edge, n * phi_i = (eps/3) * 2^i <=
      (eps/3) * d on a path, and on mirror distances up to R the assembly's
      stretch is 1 + 2 eps' = 1 + eps/3 (the sentinel's is 1); the two
      factors compose to at most 1 + eps.  Band i holds every node with d
      in [2^i, 2 * 2^i): its mirror distance is below (2 + eps/3) * 2^i /
      phi_i, and its estimate below (1 + eps/3) * (2 + eps/3) * 2^i / phi_i
      < 4 * 2^i / phi_i = R.
    * So take r = floor(log2 d) <= T, as d <= n * W < 2^(T+1).  If r <= J,
      band r was built and holds the node, so it is still in ``stacks``:
      a retired band is at inf for every node but the source.  If r = T,
      the sentinel holds the node.  Otherwise the sentinel holds it (by the
      previous bullet, with T for i), so a band j <= J < r of the run holds
      it, and 2^j <= d.  Any other band only offers another upper bound, so
      the least one is within the bound.

    After a band has processed an update's record, it is *retired* if it
    holds the source alone, that is, if every estimate but the source's is
    inf (``holds_only_root``).  Its entries leave ``stacks``, ``mirrors``
    and ``_units``, and the other bands keep their order.  The band that
    covers the top scale is never retired, so ``stacks`` is never empty:
    the sentinel in layered mode, the last band in exact mode.  Retiring
    moves no answer:

    * ``EsTree`` levels never fall under deletions and weight increases,
      nor do ``MonotoneEsTree`` levels, and a shortcut insertion leaves
      levels alone.  So a band at inf for every node but the source stays
      so under every later update, had it been kept.
    * Its key for any other node is then inf for good.  That is never less
      than another band's key, so it is never a node's least key, and a
      least key of inf gives the answer inf whichever band it came from.
    * The source's key is 0 in every band.  Its answer is set at build and
      never rises, so it is never settled again.
    * Inside an update ``_grow`` reads the run only for touched nodes, and
      the source is never touched: its estimate is 0 in every band for good.

    So every node's least key is the same with the band as without it, and
    so is every answer, every change an update reports and the run's growth.

    An update sets each touched node's answer to the larger of its previous
    answer and its least band estimate, so no answer ever falls, and the
    clamp keeps the bound (as in ``ApspState``):

    * every band estimate is at least d;
    * as distances only grow, the previous answer is at most
      (1 + eps) * d_before <= (1 + eps) * d;
    * the least band estimate is at most (1 + eps) * d, by the bullets above.

    The grains phi_i = (A/B) * 2^i, with A/B = (eps/3)/n in lowest terms,
    share the denominator B, and every band keeps its estimates as ints
    over its own denominator: 1 for an exact tree, the plan's D for an
    assembly.  So a scaled band's integer estimate ``s`` has key
    ``s * (A << i) * D / (its denominator)`` and the exact band's estimate
    ``d`` has key ``d * B``, all ints over B * D.  ``_keys`` holds each
    node's answer as such a key, and ``_answers`` holds the answer itself:
    ``Fraction(key, B * D)``, built once per change, or the plain ``int`` of
    the exact band.  Ties between bands go to the lower index in ``stacks``.

    A failure inside ``process_update`` comes after the graph changed and
    leaves the bands half applied, so it poisons the instance: every later
    query and update raises ``UpdateError``.  Nothing can be served again,
    so the bands, mirrors and keys are dropped at the fault.  A rejected
    event raises in the graph before anything moves, and poisons nothing.

    Works on any read-protocol view; updates arrive as already-applied
    change records, so instances can also serve as the distance contract
    inside a ball system.
    """

    def __init__(self, view, source, eps, *, p=None, q=None, c=2.0, seed=0):
        self.view = view
        self.source = source
        self.eps = Fraction(eps)
        if not (0 < self.eps <= 1):
            raise ParamConfigError("need 0 < eps <= 1, got %s" % (self.eps,))
        if not view.has_node(source):
            raise ParamConfigError("source %r is not in the graph" % (source,))
        check_float_range(view.max_weight, "edge weights")
        self.eps_inner = self.eps / 3
        n = view.node_count()
        self.range_bound = 4 * n / self.eps_inner
        grain, self._band_count, fine, depth = band_layout(n, view.max_weight, self.eps)
        self._unit, self._grain_den = grain.numerator, grain.denominator
        # Every scaled band has this node count, range and eps: one plan.
        self.plan = plan = StackPlan(n, self.range_bound, self.eps_inner, p, q)
        self._c, self._seed = c, seed
        self._denom = grain.denominator * plan.denominator
        # A band holds a node while its integer estimate is at most this.
        self._reach = math.floor(self.range_bound * plan.denominator)
        self.mirrors = []
        self.stacks = []  # per band: its EsTree or LayerAssembly
        self._units = []  # per band: the multiplier from integer estimate to key
        self._next_band = 0  # layered mode: the band the run grows by next
        self._built = self._retired = 0
        # The work the retired bands did, so that stats() never decreases.
        self._retired_scans = self._retired_heap_ops = 0
        self.heap_reads = 0
        self._poisoned = False
        if plan.mode == "exact":
            if fine:  # the bands with phi_i <= 1 give way to the exact band
                self.mirrors.append(None)
                self.stacks.append(EsTree(view, source, depth))
                self._units.append(grain.denominator)
                self._built += 1
            for i in range(fine, self._band_count):
                self._add_band(i)
            self._top = self.stacks[-1]  # the band over the top scale: never retired
        else:
            self._top = sentinel = self._add_band(self._band_count - 1)
            self._grow(v for v in view.node_ids() if sentinel.query(v) != inf)
        self._bands_at_build = self._built
        # Keys are never negative, so each node's first settle takes its least key.
        self._keys = dict.fromkeys(view.node_ids(), -1)
        self._answers = {}
        for v in self._keys:
            self._settle(v)

    def _add_band(self, i, layered=False):
        """Build band i on a new mirror of the current view and append it."""
        mirror = ScaledMirror(self.view, Fraction(self._unit << i, self._grain_den))
        if layered:
            band = LayerAssembly(mirror, self.source, self.plan, c=self._c,
                                 seed=self._seed * 1_000_003 + i)
            unit = self._unit << i
            self._next_band = i + 1
        else:
            band = EsTree(mirror, self.source, math.ceil(self.plan.range_bound))
            unit = (self._unit << i) * self.plan.denominator
        self.mirrors.append(mirror)
        self.stacks.append(band)
        self._units.append(unit)
        self._built += 1
        return band

    def _grow(self, nodes):
        """Extend the run of layered bands until each of ``nodes`` that the
        sentinel holds is held by one of them, or the run reaches the band
        below the top."""
        sentinel, reach = self.stacks[0], self._reach
        bands = self.stacks[:0:-1]  # the run, highest first
        needy = [v for v in nodes if sentinel.query(v) != inf
                 and all(band.query(v) > reach for band in bands)]
        while needy and self._next_band < self._band_count - 1:
            band = self._add_band(self._next_band, layered=True)
            needy = [v for v in needy if band.query(v) > reach]

    def _settle(self, node):
        """Raise ``node``'s answer to its least band estimate (ties go to the
        lower band) if that is higher; returns whether the answer rose."""
        stacks, units = self.stacks, self._units
        least, holder, estimate = inf, 0, inf
        for b in range(len(stacks)):
            value = stacks[b].query(node)
            try:
                key = value * units[b]
            except OverflowError:  # inf times a unit past the float range
                continue
            if key < least:
                least, holder, estimate = key, b, value
        if least <= self._keys[node]:
            return False
        self._keys[node] = least
        if least != inf and self.mirrors[holder] is not None:
            estimate = Fraction(least, self._denom)
        self._answers[node] = estimate
        return True

    def query(self, node):
        """Current estimate; exactly one dict read, counted in ``heap_reads``.

        Ids are looked up as dict keys, so ``True`` and ``1.0`` read node 1's
        answer; an id that is not a node, or not hashable, is a
        ``ParamConfigError``, and every query of a poisoned instance is an
        ``UpdateError``.
        """
        # Counted before the read, so a hit runs no extra store; a miss
        # takes the count back.
        self.heap_reads += 1
        try:
            return self._answers[node]
        except (KeyError, TypeError):
            self.heap_reads -= 1
            if self._poisoned:
                raise UpdateError(POISONED) from None
            raise ParamConfigError("node %r is not in the graph" % (node,)) from None

    def stats(self):
        """Lifetime counters; none of them ever decreases.

        ``band_count`` is the number of distance bands over the range,
        ``bands_built`` the structures ever put in ``stacks`` (the exact
        band and the sentinel included), ``bands_built_late`` those of them
        built inside an update, ``bands_retired`` those of them retired, so
        that ``stacks`` holds ``bands_built - bands_retired`` bands until a
        fault poisons the instance and empties it.
        ``heap_reads`` is the queries answered (the benchmark reads it under
        that name), ``es_edge_scans`` the edge scans of every band's exact
        tree and ``monotone_heap_ops`` the heap operations of every
        assembly's shortcut tree, retired bands included.
        """
        scans, heap_ops = self._work(self.stacks)
        return {
            "band_count": self._band_count,
            "bands_built": self._built,
            "bands_built_late": self._built - self._bands_at_build,
            "bands_retired": self._retired,
            "heap_reads": self.heap_reads,
            "es_edge_scans": scans + self._retired_scans,
            "monotone_heap_ops": heap_ops + self._retired_heap_ops,
        }

    @staticmethod
    def _work(bands):
        """The edge scans of the bands' exact trees and the heap operations
        of their shortcut trees, summed."""
        scans = heap_ops = 0
        for band in bands:
            if band.mode == "exact":
                scans += band.work_counter
            else:
                scans += band.lower.work_counter
                heap_ops += band.sg.tree.work_counter
        return scans, heap_ops

    def _retire(self, dead):
        """Retire the bands ``dead`` (see the class docstring)."""
        scans, heap_ops = self._work(dead)
        self._retired_scans += scans
        self._retired_heap_ops += heap_ops
        self._retired += len(dead)
        for band in dead:
            b = self.stacks.index(band)
            del self.stacks[b], self.mirrors[b], self._units[b]

    def apply_event(self, event):
        """Apply an update to the owned base graph and digest it."""
        if self._poisoned:
            raise UpdateError(POISONED)  # before the graph changes
        return self.process_update(self.view.apply_update(event))

    def process_update(self, record):
        """Digest one already-applied change; returns sorted changed (node, value)."""
        if self._poisoned:
            raise UpdateError(POISONED)
        try:
            touched = set()
            top, dead = self._top, []  # dead: bands left holding the source alone
            for mirror, structure in zip(self.mirrors, self.stacks):
                band_record = record if mirror is None else mirror.translate(record)
                if band_record is not None:
                    touched.update(node for node, _ in structure.process_update(band_record))
                    if structure is not top and structure.holds_only_root():
                        dead.append(structure)
            if dead:
                self._retire(dead)
            if touched and self.plan.mode == "layered":
                self._grow(touched)
            answers = self._answers
            out = [(node, answers[node]) for node in sorted(touched) if self._settle(node)]
        except BaseException:
            self._poison()
            raise
        return out

    def _poison(self):
        """Refuse every later query and update, and free what served them;
        the bands' work stays in ``stats()``."""
        work = self.stats()
        self._retired_scans = work["es_edge_scans"]
        self._retired_heap_ops = work["monotone_heap_ops"]
        self.stacks, self.mirrors, self._units, self._keys, self._answers = [], [], [], {}, {}
        self._top, self._poisoned = None, True

    def check_answers(self):
        """Every answer lies in [d, (1 + eps) * d] for the true distance d."""
        dist = dijkstra_bounded(self.view, self.source, inf)
        bound = 1 + self.eps
        for v, answer in self._answers.items():
            d = dist.get(v, inf)
            if not d <= answer <= bound * d:
                raise AssertionError("answer %s at node %r outside [%s, %s * %s]"
                                     % (answer, v, d, bound, d))
