"""A dropped structure is freed by reference counting alone.

A reference cycle (say, a factory closure that captures its owner) leaves
every dropped structure to the cyclic garbage collector, which runs only as
often as other allocations trigger it; a replay that builds many structures
then holds their memory far longer than it needs.  With the collector
disabled, each structure must be gone as soon as its last reference is.
"""

import gc
import weakref
from fractions import Fraction
from math import inf

import pytest

from decrsp.apsp import ApspState
from decrsp.es_tree import EsTree
from decrsp.layered import FullRangeSssp

from test_graph_core import random_graph

BUILDERS = {
    "es_tree": lambda g: EsTree(g, 0, inf),
    "full_range_default": lambda g: FullRangeSssp(g, 0, Fraction(1, 2), seed=1),
    "full_range_p4_q3": lambda g: FullRangeSssp(g, 0, Fraction(1, 2), p=4, q=3, seed=1),
    "apsp_k2": lambda g: ApspState(g, 2, Fraction(1, 2), seed=1, c=0.3),
}


@pytest.mark.parametrize("name", list(BUILDERS))
def test_dropped_structure_is_freed_without_the_cycle_collector(name):
    g = random_graph(24, 48, 8, seed=5)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        structure = BUILDERS[name](g)
        ref = weakref.ref(structure)
        del structure
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()
