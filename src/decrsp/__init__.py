"""Decremental approximate shortest paths for weighted undirected graphs.

The package maintains single-source and all-pairs distance estimates under
edge deletions and weight increases.  Building blocks, bottom up:

* :mod:`decrsp.graph` - dynamic graph, update records, views, bounded Dijkstra
* :mod:`decrsp.oracle` - independent exact oracles for validation
* :mod:`decrsp.es_tree` - exact single-source tree to a depth bound (distance bands)
* :mod:`decrsp.monotone_tree` - two-phase tree with monotone levels (balls, shortcuts)
* :mod:`decrsp.sampling` - randomized edge-sampling node priorities
* :mod:`decrsp.balls` - approximate balls with frozen scopes and a journal
* :mod:`decrsp.hopset` - shortcut graph + scaled tree single-source estimates
* :mod:`decrsp.layered` - layered ranges and the full-range estimate
* :mod:`decrsp.apsp` - recursive all-pairs queries over ball structures
* :mod:`decrsp.harness` - instance generation and oracle-checked runs
* :mod:`decrsp.cli` - the ``decrsp`` command line front end
"""

__all__ = ["__version__"]
__version__ = "0.1.0"
