"""The paper's ``log W`` factor on a slow-rise family.

The paper bounds total update time by ``O(m^{1+o(1)} log W)``; rounding
distances to bands is what buys the ``log W``.  An exact tree pays for every
unit a distance rises, so a family of many small rises at long range tells
the two apart: a path of weight-``W`` edges, a bridge behind it raised by 1
per update up to ``W``, and behind the bridge a tail whose every distance
rises with it.  Growing ``W`` from 256 to 4096 multiplies the rises by 16 but
``log W`` by only 12/8 = 1.5, so a structure that keeps the bound does at
most 1.5 times the work.
"""

import math
import random
from fractions import Fraction

import pytest

from decrsp.graph import DynamicGraph, UpdateEvent
from decrsp.layered import FullRangeSssp

LOG_RATIO = math.log2(4096) / math.log2(256)


def slow_rise(W, path, tail, m, seed=0):
    """Nodes ``0 .. path - 1`` on a path of weight-``W`` edges, the bridge
    ``(path - 1, path)`` of weight 1, and behind it ``tail`` nodes on a
    random tree plus random edges, weights 1 to 4, ``m`` edges in all.
    Returns the graph and the bridge's near end."""
    rng = random.Random(seed)
    n = path + tail
    edges = {(i, i + 1): W for i in range(path - 1)}
    edges[(path - 1, path)] = 1
    for x in range(path + 1, n):
        edges[(rng.randrange(path, x), x)] = rng.randint(1, 4)
    while len(edges) < m:
        u, v = sorted(rng.sample(range(path, n), 2))
        edges.setdefault((u, v), rng.randint(1, 4))
    graph = DynamicGraph(n, W)
    for (u, v), w in edges.items():
        graph.add_edge(u, v, w)
    return graph, path - 1


def rise_work(W, shape, layers, stride=32):
    """Raise the bridge to 2, 3, .., W, checking the answers every
    ``stride`` updates and after the last; returns the final ``stats()``."""
    graph, near = slow_rise(W, *shape)
    sssp = FullRangeSssp(graph, 0, Fraction(1, 2), **layers)
    for k, w in enumerate(range(2, W + 1)):
        sssp.apply_event(UpdateEvent("increase", near, near + 1, w))
        if k % stride == 0 or w == W:
            sssp.check_answers()
    return sssp.stats()


@pytest.mark.parametrize("shape, layers, counters", [
    # 221 nodes and 1001 edges on the default path's exact bands.
    ((20, 201, 1001), {}, ("es_edge_scans",)),
    # 61 nodes and 200 edges on layered bands; the full family costs the
    # layered path about 7 s.
    ((20, 41, 200), {"p": 4, "q": 3}, ("es_edge_scans", "monotone_heap_ops")),
], ids=["default", "layered"])
def test_work_grows_with_log_w_not_w(shape, layers, counters):
    small, large = (rise_work(W, shape, layers) for W in (256, 4096))
    for counter in counters:
        assert 0 < large[counter] <= LOG_RATIO * small[counter], (counter, small, large)
