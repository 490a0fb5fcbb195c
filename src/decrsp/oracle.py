"""Exact shortest-path oracles used for validation.

Two independent routes are provided on purpose: a binary-heap Dijkstra and a
queue-based Bellman-Ford.  The harness cross-checks them against each other
before trusting either, so a bug in one implementation cannot silently
validate the structures under test.
"""

from __future__ import annotations

import heapq
from math import inf


def dijkstra(view, source):
    """Exact distances from source as {node: dist}; unreachable nodes absent."""
    dist = {}
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in dist:
            continue
        dist[u] = d
        for v, w in view.neighbors(u):
            if v not in dist:
                heapq.heappush(heap, (d + w, v))
    return dist


def bellman_ford(view, source):
    """Exact distances via label-correcting relaxation (SPFA-style queue)."""
    dist = {source: 0}
    queue = [source]
    in_queue = {source}
    while queue:
        next_queue = []
        for u in queue:
            in_queue.discard(u)
        for u in queue:
            du = dist[u]
            for v, w in view.neighbors(u):
                nd = du + w
                if nd < dist.get(v, inf):
                    dist[v] = nd
                    if v not in in_queue:
                        in_queue.add(v)
                        next_queue.append(v)
        queue = next_queue
    return dist


def cross_checked_distances(view, source):
    """Distances agreed on by both oracle routes; raises on any disagreement."""
    a = dijkstra(view, source)
    b = bellman_ford(view, source)
    if a != b:
        diff = {
            k: (a.get(k, inf), b.get(k, inf))
            for k in set(a) | set(b)
            if a.get(k, inf) != b.get(k, inf)
        }
        raise AssertionError("oracle disagreement from %r: %r" % (source, diff))
    return a
