"""Shortcut-augmented single-source distances on a rounded, scaled multigraph.

Pipeline: a live ball system over the base graph contributes one shortcut
edge per (owner, member) pair, weighted by the owner's distance estimate.
Shortcuts are overlaid on the base edges as parallel multigraph edges (the
effective weight between two endpoints is then automatically the minimum
over live parallel keys).  Any edge heavier than the admission cap is left
out.  Every admitted weight is divided by the rounding grain ``phi`` and
rounded up to an integer, and a monotone single-source tree runs on the
result; distance estimates are tree levels multiplied back by ``phi``, or
kept as ints over ``phi``'s denominator (levels times its numerator).

The parameter block precomputes the coupled series of radii ``r_i``, reach
bounds ``s_i``, weight budgets ``w_i`` and additive-error terms ``gamma_i``
in exact rational arithmetic, asserts their closed-form identities at
construction, and derives the level cap and weight cap.  Rounding trades a
``phi`` additive error per hop for a much smaller level cap; the hop budget
``hop_budget`` bounds how many hops the intended routes need, which keeps
the total rounding error below ``eps * dist + 2 * eps * delta``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import inf

from .balls import EST, JOIN, LEAVE
from .graph import ParamConfigError
from .monotone_tree import MonotoneEsTree


def integer_root_ceil(value, p):
    """Smallest integer x >= 1 with x**p >= value, for a rational value >= 0."""
    if p < 1:
        raise AssertionError("root degree p=%r must be >= 1" % (p,))
    if value <= 1:
        return 1
    lo, hi = 1, 2  # lo**p < value; doubling stops once hi**p >= value
    while hi**p < value:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**p < value:
            lo = mid
        else:
            hi = mid
    return hi


@dataclass(frozen=True)
class ParamSeries:
    """Exact-rational parameter block for one shortcut-graph instance.

    ``alpha``/``beta`` bound the shortcut-edge weights against true
    distances, ``a``/``b`` bound the watcher estimates used for radius
    detection, ``eps`` is the error budget, ``p`` the number of priority
    levels, ``delta`` the base distance scale and ``depth`` the distance
    range this instance must cover.
    """

    alpha: Fraction
    beta: Fraction
    a: Fraction
    b: Fraction
    eps: Fraction
    p: int
    delta: int
    depth: int
    admissible: bool  # whether the priority-count bound held
    phi: Fraction  # rounding grain eps*delta/(p+1)
    root_bound: int  # smallest integer x with x**p >= n
    weight_cap: int  # depth + root_bound*delta; heavier edges stay out
    level_cap: int  # monotone-tree cutoff
    r: tuple  # per-priority radii, r[0] = delta
    s: tuple  # per-priority reach bounds s_i = a*r_i + b
    w: tuple  # per-priority weight budgets w_i = alpha*s_i + beta
    gamma: tuple  # per-priority additive error terms, gamma[p-1] = beta
    gamma_total: Fraction  # gamma[0] + 2*eps*delta

    def __post_init__(self):
        # phi's numerator and denominator as plain ints, read per weight.
        object.__setattr__(self, "_phi_num", self.phi.numerator)
        object.__setattr__(self, "_phi_den", self.phi.denominator)

    def round_weight(self, weight):
        """Scaled integer weight: smallest k with k*phi >= weight."""
        return -(-weight * self._phi_den // self._phi_num)

    def hop_budget(self, dist, i):
        """Hop allowance for a node of priority i at the given distance.

        Equals (p+1) * ceil(max(dist - r_i, 0) / delta) + p + 1 - i; the
        root itself has budget 0.  ``dist`` may be inf (budget inf).
        """
        if not 0 <= i < self.p:
            raise AssertionError("priority %r outside [0, %d)" % (i, self.p))
        if dist == inf:
            return inf
        over = Fraction(dist) - self.r[i]
        blocks = math.ceil(over / self.delta) if over > 0 else 0
        return (self.p + 1) * blocks + self.p + 1 - i


def _identity(holds, what):
    """An explicit check that also runs under ``python -O``."""
    if not holds:
        raise AssertionError("parameter identity fails: " + what)


def derive_params(alpha, beta, a, b, eps, p, delta, depth, n):
    """Build the exact parameter series and assert its identities.

    Preconditions: 1 <= alpha <= a, 0 <= beta <= b, 0 < eps <= 1,
    b <= delta <= depth and p >= 2 an integer.  The priority-count bound
    (4a^3/eps)^(p^2) <= n is recorded in ``admissible`` and never enforced.
    When it fails, the level cap is raised to cover plain base-graph paths
    of weight up to ``depth`` so that estimates stay finite without the
    shortcut-density guarantee.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    a, b, eps = Fraction(a), Fraction(b), Fraction(eps)
    if not (1 <= alpha <= a):
        raise ParamConfigError("need 1 <= alpha <= a, got alpha=%s a=%s" % (alpha, a))
    if not (0 <= beta <= b):
        raise ParamConfigError("need 0 <= beta <= b, got beta=%s b=%s" % (beta, b))
    if not (0 < eps <= 1):
        raise ParamConfigError("need 0 < eps <= 1, got %s" % (eps,))
    if not (isinstance(p, int) and p >= 2):
        raise ParamConfigError("priority count p must be an integer >= 2, got %r" % (p,))
    if not (b <= delta):
        raise ParamConfigError("distance scale delta=%s must be >= b=%s" % (delta, b))
    if not (delta <= depth):
        raise ParamConfigError("depth=%s must be >= delta=%s" % (depth, delta))
    if n < 2:
        raise ParamConfigError("need at least two nodes, got n=%d" % (n,))

    base = 4 * a**3 / eps
    admissible = base ** (p * p) <= n

    coef = alpha + 1 + eps
    r, s, w = [], [], []
    acc = Fraction(0)  # running sum of w[j] for j < i
    for i in range(p):
        r.append(Fraction(delta) if i == 0 else (coef * acc + beta) / eps)
        s.append(a * r[i] + b)
        w.append(alpha * s[i] + beta)
        acc += w[i]
    gamma = [Fraction(0)] * p
    gamma[p - 1] = beta
    for i in range(p - 2, -1, -1):
        gamma[i] = gamma[i + 1] + coef * w[i]
    gamma_total = gamma[0] + 2 * eps * delta

    # Identities the rest of the construction leans on.  The radius/error
    # correspondence and the radius closed form are only claimed from the
    # first derived radius onwards; r[0] is pinned to delta by definition
    # and does not satisfy either in general.
    _identity(gamma[p - 1] == beta, "gamma[p-1] == beta")
    wsum = Fraction(0)
    for i in range(p):
        if i >= 1:
            _identity(eps * r[i] == gamma[0] - gamma[i] + beta,
                      "eps * r[%d] == gamma[0] - gamma[%d] + beta" % (i, i))
            bound_r = (
                3 * 4 ** (i - 1) * a ** (3 * i) * delta
                + (9 * 4 ** (i - 1) - 2) * a ** (3 * i - 1) * b
            ) / eps**i
            _identity(r[i] <= bound_r, "r[%d] <= its closed-form bound" % (i,))
        wsum += w[i]
        bound_w = (
            4**i * a ** (3 * i + 2) * delta + (3 * 4**i - 1) * a ** (3 * i + 1) * b
        ) / eps**i
        _identity(wsum <= bound_w, "w[0] + ... + w[%d] <= its closed-form bound" % (i,))
    if admissible:
        # Consequences of the priority-count bound, checked without real
        # roots by raising both sides to the p-th power.
        _identity(((a * gamma_total + b) / (eps * delta)) ** p <= n,
                  "((a * gamma_total + b) / (eps * delta))^p <= n")
        _identity(((a * r[p - 1] + b) / delta) ** p <= n, "((a * r[p-1] + b) / delta)^p <= n")

    root_bound = integer_root_ceil(n, p)
    phi = eps * delta / (p + 1)
    level_cap = math.ceil((alpha + 2 * eps) * depth / phi) + (p + 1) * root_bound
    if not admissible:
        level_cap = max(level_cap, math.ceil(depth / phi) + n + 1)
    weight_cap = depth + root_bound * delta

    return ParamSeries(
        alpha=alpha,
        beta=beta,
        a=a,
        b=b,
        eps=eps,
        p=p,
        delta=delta,
        depth=depth,
        admissible=admissible,
        phi=phi,
        root_bound=root_bound,
        weight_cap=weight_cap,
        level_cap=level_cap,
        r=tuple(r),
        s=tuple(s),
        w=tuple(w),
        gamma=tuple(gamma),
        gamma_total=gamma_total,
    )


class ShortcutGraph:
    """Base edges plus ball shortcuts, scaled, under a monotone tree.

    Parallel edges are kept under distinct keys: base edges as
    ``("G", u, v)`` with u < v, shortcut edges as ``("F", owner, member)``.
    A LEAVE, or an increase past the weight cap, deletes the key from the
    tree, so a member that rejoins later reuses it for a new lifetime; the
    ball system never journals a JOIN and a LEAVE of one pair in one batch,
    and the tree refuses a key that is still present.  Every key names one
    endpoint as ``key[1]``.  The tree owns the admitted keys and their rounded
    weights: a key is admitted exactly while ``tree.has_edge(key, key[1])``.

    ``edges_ever`` counts keys ever admitted to the tree and
    ``update_ops`` counts tree operations (insert/increase/delete);
    together they bound the tree's total work.
    """

    def __init__(self, view, balls, params, root):
        self.view = view
        self.balls = balls
        self.params = params
        self.root = root
        self.update_ops = 0

        cap, edges = params.weight_cap, []
        for u, v, weight in view.edges():  # u < v
            if weight <= cap:
                edges.append((("G", u, v), u, v, params.round_weight(weight)))
        for owner, table in balls.initial_membership().items():
            for member, estimate in table.items():
                if member != owner and estimate <= cap:
                    edges.append((("F", owner, member), owner, member,
                                  params.round_weight(estimate)))
        self.edges_ever = len(edges)
        self.tree = MonotoneEsTree(root, params.level_cap, edges)

    # -- reads ----------------------------------------------------------------

    def query(self, node):
        level = self.tree.level_of(node)
        return inf if level == inf else level * self.params.phi

    def scaled_query(self, node):
        """The estimate as an int over ``params.phi.denominator``: the tree
        level times the grain's numerator (inf stays inf)."""
        return self.tree.level_of(node) * self.params._phi_num

    # -- structure checks ---------------------------------------------------------

    def _admitted_weights(self):
        """The raw weight of every edge the tree must hold, by key: each edge
        of the live view and each live shortcut (owner != member) of the
        balls, kept when it is at most the weight cap."""
        raw = {("G", u, v): weight for u, v, weight in self.view.edges()}
        for owner, table in self.balls.initial_membership().items():
            raw.update((("F", owner, v), est) for v, est in table.items() if v != owner)
        return {key: weight for key, weight in raw.items() if weight <= self.params.weight_cap}

    def check_sandwich(self):
        """Every tree edge is admitted, and its rounded weight w' satisfies
        w <= phi*w' <= w + phi for the edge's raw weight w.

        Walks the tree's own edges, each from both ends, against
        ``_admitted_weights``.
        """
        phi, admitted = self.params.phi, self._admitted_weights()
        for edges in self.tree.adj.values():
            for key, (_, rounded) in edges.items():
                raw = admitted.get(key)
                if raw is None or not raw <= phi * rounded <= raw + phi:
                    raise AssertionError("tree edge %r weight %s outside the sandwich of %s"
                                         % (key, rounded, raw))

    def check_shortcut_mirror(self):
        """The tree holds every admitted edge: each live base edge and live
        shortcut under the weight cap."""
        missing = [key for key in self._admitted_weights() if not self.tree.has_edge(key, key[1])]
        if missing:
            raise AssertionError("admitted edges missing from the tree: %r" % (missing,))


def shortcut_process_update(sg, record, ball_changes):
    """Feed one base-graph change plus its ball fallout; report new estimates.

    Tree traffic goes in one batch and one pass: the base-graph deletion or
    increase, then the ball events in journal order.  The order is free: a
    batch holds at most one event per (owner, member), so each tree operation
    is on its own key, and the tree moves no level before ``end_batch``,
    which then sees the same edges and the same pending endpoints in any
    order.  Returns the sorted list of (node, estimate) pairs whose estimate
    changed, each estimate an int over ``params.phi.denominator`` as
    ``sg.scaled_query`` gives it (inf stays inf).
    """
    params, tree = sg.params, sg.tree
    cap = params.weight_cap
    pair = (record.u, record.v) if record.u < record.v else (record.v, record.u)
    # A base deletion is a LEAVE of its key, a base increase an EST.
    traffic = [(LEAVE if record.kind == "delete" else EST, ("G",) + pair, record.new_weight)]
    traffic += [(ev.kind, ("F", ev.owner, ev.member), ev.estimate)
                for ev in ball_changes.events if ev.member != ev.owner]
    for kind, key, weight in traffic:
        u = key[1]
        if kind == JOIN:
            if weight <= cap:
                tree.insert_edge(key, u, key[2], params.round_weight(weight))
                sg.edges_ever += 1
                sg.update_ops += 1
        elif tree.has_edge(key, u):
            if kind == LEAVE or weight > cap:
                tree.delete_edge(key, u)
                sg.update_ops += 1
            else:
                # Rounding may absorb an increase entirely.
                rounded = params.round_weight(weight)
                if rounded > tree.adj[u][key][1]:
                    tree.increase_edge(key, u, rounded)
                    sg.update_ops += 1

    changes = tree.end_batch()
    num = params._phi_num
    return [(node, lev * num) for node, lev in changes]
