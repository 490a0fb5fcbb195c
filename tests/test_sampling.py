"""Priority sampler: determinism, set structure, and size statistics."""

import math
import random

import pytest

from decrsp.graph import ParamConfigError
from decrsp.oracle import dijkstra
from decrsp.sampling import max_priority_levels, sample_priorities

from test_graph_core import random_graph


def test_determinism_and_structure():
    g = random_graph(40, 120, 5, seed=1)
    a = sample_priorities(g, 3, 2.0, seed=42)
    b = sample_priorities(g, 3, 2.0, seed=42)
    assert a == b and a.priority == b.priority
    assert a.level_sets[0] == frozenset(range(40))
    assert a.level_sets[3] == frozenset()
    # Endpoint sets match the sampled edge lists exactly.
    for i in (1, 2):
        assert a.level_sets[i] == frozenset(
            x for u, v in a.sampled_edges[i - 1] for x in (u, v)
        )
    # Priorities are the max containing level.
    for u in range(40):
        want = max((i for i in (1, 2) if u in a.level_sets[i]), default=0)
        assert a.priority_of(u) == want
    different = sample_priorities(g, 3, 2.0, seed=43)
    assert different.sampled_edges != a.sampled_edges


def test_isolated_nodes_get_priority_zero():
    g = random_graph(10, 5, 4, seed=3)
    iso = [u for u in range(10) if len(g.neighbors(u)) == 0]
    assert iso, "seed must leave an isolated node for this test"
    a = sample_priorities(g, 2, 2.0, seed=0)
    for u in iso:
        assert a.priority_of(u) == 0


def test_saturated_probability_samples_every_edge():
    # With tiny m the per-edge probability caps at 1, so level 1 holds every
    # edge and every non-isolated node.
    g = random_graph(30, 6, 4, seed=5)
    a = sample_priorities(g, 2, 2.0, seed=9)
    assert 2 * math.log(30) / (6 ** 0.5) >= 1.0
    assert a.sampled_edges[0] == tuple((u, v) for u, v, _ in sorted(g.edges()))
    assert a.level_sets[1] == frozenset(x for u, v, _ in g.edges() for x in (u, v))


def test_p_bounds_enforced():
    g = random_graph(40, 60, 4, seed=2)
    with pytest.raises(ValueError):
        sample_priorities(g, 1, 2.0, seed=0)
    with pytest.raises(ValueError):
        sample_priorities(g, 6, 2.0, seed=0)  # log2(40) ~ 5.3
    assert max_priority_levels(40) == 5
    sample_priorities(g, 5, 2.0, seed=0)  # boundary value is accepted


@pytest.mark.parametrize("c", [0, -1, math.nan, math.inf])
def test_sampling_constant_must_be_positive_and_finite(c):
    g = random_graph(40, 60, 4, seed=2)
    with pytest.raises(ParamConfigError, match="sampling constant"):
        sample_priorities(g, 2, c, seed=0)


def test_sampled_edge_count_within_binomial_window():
    # |F_1| is Binomial(m, prob); a fixed seed must land within 5 sigma.
    n, m, p = 256, 2000, 2
    g = random_graph(n, m, 3, seed=77)
    prob = min(1.0, 2.0 * math.log(n) / (m ** (1 / p)))
    mean = m * prob
    sigma = math.sqrt(m * prob * (1 - prob))
    for seed in range(10):
        a = sample_priorities(g, p, 2.0, seed=seed)
        count = len(a.sampled_edges[0])
        assert abs(count - mean) <= 5 * sigma, (count, mean, sigma)


def test_empirical_ball_size_statistics():
    """Sampling keeps exact balls small: the number of edges with an endpoint
    strictly closer to u than the nearest level-(i+1) node exceeds m^((i+1)/p)
    only with probability about n^-c per node, so over many seeded runs the
    violating fraction stays below a 4/n tolerance (documented here; the
    bound is probabilistic, not per-run)."""
    n, m, p, c = 64, 400, 3, 2.0
    g = random_graph(n, m, 4, seed=13)
    dist = {u: dijkstra(g, u) for u in range(n)}
    runs, checked, violations = 120, 0, 0
    for seed in range(runs):
        a = sample_priorities(g, p, c, seed=seed)
        for u in range(n):
            i = a.priority_of(u)
            if i >= p - 1:
                continue
            above = a.level_sets[i + 1]
            radius = min((dist[u].get(x, math.inf) for x in above), default=math.inf)
            if radius == math.inf:
                continue
            inside = sum(
                1
                for x, y, _ in g.edges()
                if dist[u].get(x, math.inf) < radius or dist[u].get(y, math.inf) < radius
            )
            checked += 1
            if inside > m ** ((i + 1) / p):
                violations += 1
    # Saturated sampling puts most nodes at top priority (skipped above), so
    # the checked population is a modest but statistically usable slice.
    assert checked >= 500, checked
    assert violations / checked <= 4 / n, (violations, checked)
