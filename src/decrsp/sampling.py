"""Randomized node priorities via per-level edge sampling.

Level ``i`` (for 1 <= i <= p-1) samples every current edge independently with
probability min(1, c * ln(n) / m^(i/p)); the endpoints of the sampled edges
form the node set for that level.  Level 0 holds every node and level p is
empty.  A node's priority is the highest level containing it, so isolated
nodes sit at priority 0.  Sampling happens once - the assignment is frozen
for the whole update schedule.

All draws go through one seeded ``random.Random`` in a fixed order (levels
ascending, edges in sorted order), so the assignment is reproducible across
platforms and process runs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .graph import ParamConfigError


@dataclass(frozen=True)
class PriorityAssignment:
    p: int
    level_sets: tuple  # frozensets A_0 .. A_p (indexable by level)
    sampled_edges: tuple  # tuple of edge tuples for levels 1 .. p-1
    priority: dict = field(compare=False)

    def priority_of(self, node):
        return self.priority.get(node, 0)


def max_priority_levels(n):
    """Largest admissible p for an n-node graph (binary log scale)."""
    return max(0, int(math.log2(n))) if n >= 1 else 0


def sample_priorities(view, p, c, seed):
    """Draw the frozen priority assignment for ``view``; needs 0 < c < inf."""
    if not 0 < c < math.inf:  # nan fails both comparisons
        raise ParamConfigError("sampling constant c=%r must be positive and finite" % (c,))
    nodes = list(view.node_ids())
    n = len(nodes)
    if not (isinstance(p, int) and 2 <= p <= max(2, max_priority_levels(n))):
        raise ParamConfigError(
            "priority levels p=%r outside [2, log2(n)=%.2f] for n=%d"
            % (p, math.log2(n) if n else float("-inf"), n)
        )
    edges = sorted(view.edges())
    m = len(edges)
    rng = random.Random(seed)
    sampled = []
    for i in range(1, p):
        if m == 0:
            sampled.append(())
            continue
        prob = min(1.0, c * math.log(n) / (m ** (i / p)))
        sampled.append(tuple((u, v) for u, v, _ in edges if rng.random() < prob))
    level_sets = [frozenset(nodes)]
    for chosen in sampled:
        level_sets.append(frozenset(x for u, v in chosen for x in (u, v)))
    level_sets.append(frozenset())
    priority = {}
    for i in range(1, p):
        for u in level_sets[i]:
            if priority.get(u, 0) < i:
                priority[u] = i
    return PriorityAssignment(
        p=p,
        level_sets=tuple(level_sets),
        sampled_edges=tuple(sampled),
        priority=priority,
    )

