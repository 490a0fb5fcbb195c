"""Span tracing around decrsp's public entry points, installed from outside.

The benchmark never edits the library.  :class:`Tracer` replaces the entry
points listed in :data:`TARGETS` with wrappers that record one span per call
(name, start, end, parent span, update index) in flat in-memory arrays, and
puts every original back on :meth:`Tracer.uninstall`.

Two kinds of indirection need care:

* class-level aliases (``estimate = query`` on ``FullRangeSssp``): every name
  in the class that refers to the wrapped function is replaced;
* functions imported by value (``dijkstra_bounded`` in ``es_tree`` and
  ``balls``, ``sample_priorities`` in ``layered``/``apsp``/``balls``, the
  hopset helpers in ``layered``): every ``decrsp`` module attribute that
  refers to the function is replaced, so each call site sees the wrapper.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

# (span name, module, attribute path).  The span name's first component is
# the module that owns the time; the benchmark's own root spans use "bench".
TARGETS = (
    ("graph.apply_update", "decrsp.graph", "DynamicGraph.apply_update"),
    ("graph.dijkstra_bounded", "decrsp.graph", "dijkstra_bounded"),
    ("es_tree.init", "decrsp.es_tree", "EsTree.__init__"),
    ("es_tree.process_update", "decrsp.es_tree", "EsTree.process_update"),
    ("monotone_tree.init", "decrsp.monotone_tree", "MonotoneEsTree.__init__"),
    ("monotone_tree.end_batch", "decrsp.monotone_tree", "MonotoneEsTree.end_batch"),
    ("sampling.sample_priorities", "decrsp.sampling", "sample_priorities"),
    ("balls.init", "decrsp.balls", "BallSystem.__init__"),
    ("balls.process_update", "decrsp.balls", "BallSystem.process_update"),
    ("hopset.init", "decrsp.hopset", "ShortcutGraph.__init__"),
    ("hopset.shortcut_process_update", "decrsp.hopset", "shortcut_process_update"),
    ("layered.init", "decrsp.layered", "FullRangeSssp.__init__"),
    ("layered.translate", "decrsp.layered", "ScaledMirror.translate"),
    ("layered.full_range.process_update", "decrsp.layered", "FullRangeSssp.process_update"),
    ("layered.assembly.process_update", "decrsp.layered", "LayerAssembly.process_update"),
    ("layered.query", "decrsp.layered", "FullRangeSssp.query"),
    ("apsp.init", "decrsp.apsp", "ApspState.__init__"),
    ("apsp.process_update", "decrsp.apsp", "ApspState.process_update"),
    ("apsp.query", "decrsp.apsp", "ApspState.query"),
    ("oracle.cross_checked_distances", "decrsp.oracle", "cross_checked_distances"),
    ("harness.generate_instance", "decrsp.harness", "generate_instance"),
)

# Root spans opened by the benchmark loop itself.
ROOTS = ("bench.setup", "bench.update", "bench.queries", "bench.verify")


def patch_sites(module_name, path):
    """Every (owner, attribute) through which callers reach the target.

    Returns the original function and the sites that currently hold it.
    """
    module = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        owners = [getattr(module, cls_name)]
        original = owners[0].__dict__[attr]
    else:
        original = getattr(module, path)
        owners = [
            mod
            for name, mod in sorted(sys.modules.items())
            if (name == "decrsp" or name.startswith("decrsp.")) and mod is not None
        ]
    sites = [
        (owner, name)
        for owner in owners
        for name, value in list(vars(owner).items())
        if value is original
    ]
    return original, sites


class Tracer:
    """In-memory span recorder plus the per-call counters the layers expose."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.update = array("q")
        self.update_index = -1
        self.counters = Counter()
        self.expansions_max = 0
        self._stack = []
        self._patches = []
        self.unbalanced = 0  # closes that did not match the innermost open span

    # -- spans ------------------------------------------------------------------

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.update.append(self.update_index)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx):
        self.end[idx] = perf_counter_ns()
        self.unbalanced += self._stack.pop() != idx

    def close_root(self, idx, t0, t1):
        """Close a benchmark root span with the loop's own timestamps.

        The loop reads its clock after :meth:`open` and before this call, so
        every child span should lie inside [t0, t1]; :meth:`problems` checks.
        """
        self.start[idx] = t0
        self.end[idx] = t1
        self.unbalanced += self._stack.pop() != idx or bool(self._stack)

    # -- patching -----------------------------------------------------------------

    def _wrap(self, span, fn, hook):
        nid = self.name_id(span)
        open_, close = self.open, self.close
        if hook is None:

            def wrapper(*args, **kwargs):
                idx = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)

        else:
            pre, post = hook

            def wrapper(*args, **kwargs):
                state = pre(args)
                idx = open_(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(idx)
                post(args, result, state)
                return result

        return functools.wraps(fn)(wrapper)

    def install(self):
        hooks = self._hooks()
        for span, module_name, path in TARGETS:
            original, sites = patch_sites(module_name, path)
            wrapper = self._wrap(span, original, hooks.get(span))
            for owner, attr in sites:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- counters read around calls -------------------------------------------------
    #
    # Each hook is a (pre, post) pair: pre(args) runs before the call and
    # returns state, post(args, result, state) runs after it.  Both run
    # outside the wrapped span, so their time falls into the caller's span.

    def _hooks(self):
        c = self.counters

        def nothing(args):
            return None

        def es_update(args, result, before):
            c["es_tree.edge_scans"] += args[0].work_counter - before
            c["es_tree.useful"] += bool(result)

        def end_batch(args, result, state):
            c["monotone_tree.level_changes"] += len(result)

        def rebuilds(args):
            return sum(args[0].rebuild_counts.values())

        def balls_update(args, result, before):
            c["balls.rebuilds"] += rebuilds(args) - before
            for event in result.events:
                c["balls.events." + event.kind] += 1

        def hopset_init(args, result, state):
            c["hopset.edges_ever"] += args[0].edges_ever

        def hopset_counts(args):
            sg = args[0]
            return sg.edges_ever, sg.update_ops, sg.tree.work_counter

        def hopset_update(args, result, before):
            after = hopset_counts(args)
            c["hopset.edges_ever"] += after[0] - before[0]
            c["hopset.update_ops"] += after[1] - before[1]
            c["monotone_tree.heap_ops"] += after[2] - before[2]

        def layered_init(args, result, state):
            stacks = args[0].stacks
            c["layered.bands"] += len(stacks)
            c["layered.exact_bands"] += sum(s.mode == "exact" for s in stacks)

        def translate(args, result, state):
            c["layered.translate.absorbed"] += result is None

        def layered_query(args, result, before):
            c["layered.heap_reads"] += args[0].heap_reads - before

        def apsp_query(args, result, state):
            expansions = args[0].last_query_expansions
            c["apsp.query.expansions"] += expansions
            self.expansions_max = max(self.expansions_max, expansions)

        return {
            "es_tree.process_update": (lambda args: args[0].work_counter, es_update),
            "monotone_tree.end_batch": (nothing, end_batch),
            "balls.process_update": (rebuilds, balls_update),
            "hopset.init": (nothing, hopset_init),
            "hopset.shortcut_process_update": (hopset_counts, hopset_update),
            "layered.init": (nothing, layered_init),
            "layered.translate": (nothing, translate),
            "layered.query": (lambda args: args[0].heap_reads, layered_query),
            "apsp.query": (nothing, apsp_query),
        }

    # -- analysis ---------------------------------------------------------------------

    def _self_times(self):
        """Each span's duration minus the durations of its direct children.

        Children of one span never overlap in a single-threaded run, so that
        is exactly the time no child covers.
        """
        count = len(self.name)
        own = [self.end[i] - self.start[i] for i in range(count)]
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def problems(self):
        """Descriptions of spans that break the nesting the analysis relies on.

        A child must lie inside its parent's [start, end], no span may have
        negative self time, every close must match the innermost open span,
        and no span may be left open after a benchmark root closes.
        """
        found = []
        start, end, parent = self.start, self.end, self.parent
        outside = sum(
            1
            for i in range(len(self.name))
            if parent[i] >= 0 and not start[parent[i]] <= start[i] <= end[i] <= end[parent[i]]
        )
        if outside:
            found.append("%d spans outside their parent's interval" % outside)
        negative = sum(1 for t in self._self_times() if t < 0)
        if negative:
            found.append("%d spans with negative self time" % negative)
        if self.unbalanced:
            found.append("%d unbalanced span closes" % self.unbalanced)
        if self._stack:
            found.append("%d spans still open" % len(self._stack))
        return found

    def analyse(self):
        """Per-span-name calls and self time, the summed duration of the
        benchmark's update roots, and per update the self time of each module."""
        own = self._self_times()
        root = [0] * len(own)
        calls = Counter()
        self_ns = Counter()
        update_root = self._name_ids.get("bench.update", -1)
        update_total = 0
        by_update = {}  # update index -> Counter(module -> self ns)
        for i, t in enumerate(own):
            p = self.parent[i]
            root[i] = i if p < 0 else root[p]
            nid = self.name[i]
            calls[nid] += 1
            self_ns[nid] += t
            if self.name[root[i]] == update_root:
                module = self.names[nid].split(".")[0]
                by_update.setdefault(self.update[i], Counter())[module] += t
                if nid == update_root:
                    update_total += self.end[i] - self.start[i]
        named_calls = {self.names[k]: v for k, v in calls.items()}
        named_self = {self.names[k]: v for k, v in self_ns.items()}
        return named_calls, named_self, update_total, by_update

    def write(self, path):
        """Gzipped, one JSON array per line: [name, start_ns, end_ns, parent, update]."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self.name)):
                fh.write(
                    '["%s",%d,%d,%d,%d]\n'
                    % (
                        self.names[self.name[i]],
                        self.start[i],
                        self.end[i],
                        self.parent[i],
                        self.update[i],
                    )
                )
