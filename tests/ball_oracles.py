"""Oracles for the ball layer, read from a ``BallSystem``'s public state.

The pure search-radius formula, the witness reach bound, and the structural
witness checks that need true distances.  ``dist_fn(x, y)`` must return the
true current distance.  pytest does not collect this file: the ball tests
import it, and the acceptance gate reaches it through their ``InvariantChecker``.
"""

from fractions import Fraction
from math import inf


def structural_witness(system, u, v, dist_fn):
    """Classify the pair: ("in_ball",...), ("witness", node, priority), or
    ("none",...)."""
    if v in system.members(u):
        return ("in_ball", None, None)
    i = system.assign.priority_of(u)
    a = (1 + system.eps) * system.alpha
    x = dist_fn(u, v)
    for v2 in sorted(system.view.node_ids()):
        j = system.assign.priority_of(v2)
        if j <= i or u not in system.members(v2):
            continue
        if dist_fn(u, v2) <= witness_reach(a, 1, x, j - i):
            return ("witness", v2, j)
    return ("none", None, None)


def witness_proviso_holds(system, u, v, dist_fn):
    """True when the structural property is required to hold for (u, v)."""
    x = dist_fn(u, v)
    if x == inf:
        return False
    chain = system.assign.p - 1 - system.assign.priority_of(u)
    if chain == 0:
        return x <= system.depth
    a = (1 + system.eps) * system.alpha
    return witness_reach(a, 1, x, chain) <= system.depth


def max_rebuilds_allowed(system):
    """Radius increases per node: one per bucket crossing plus slack."""
    count, power = 0, Fraction(1)
    while power < system.depth:
        power *= 1 + system.eps
        count += 1
    return count + 2


def radius_from_watched(val, eps, alpha, depth):
    """Pure form of the search radius for a watched set-distance estimate:

    min((1+eps)^floor(log_{1+eps}(val-1)) / alpha, depth), with the
    conventions val <= 1 -> 0 and val = inf -> depth.
    """
    if val == inf:
        return depth
    if val <= 1:
        return 0
    growth = 1 + Fraction(eps)
    x = val - 1
    power = Fraction(1)
    while power * growth <= x:
        power *= growth
    return min(power / Fraction(alpha), depth)


def witness_reach(a, b, x, l):
    """Distance within which a higher-priority witness must exist, per chain

    length l >= 1: a * (a+1)^(l-1) * x + ((a+1)^l - 1) * b / a."""
    if l < 1:
        raise AssertionError("chain length l=%r must be >= 1" % (l,))
    if x == inf:
        return inf
    grow = (a + 1) ** (l - 1)
    return a * grow * x + (grow * (a + 1) - 1) * b / a
