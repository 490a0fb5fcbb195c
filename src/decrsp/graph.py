"""Dynamic weighted undirected graph under edge deletions and weight increases.

The graph is the single source of truth for the current edge set.  All
update-driven structures in this package consume ``ChangeRecord`` objects
produced by :meth:`DynamicGraph.apply_update`; the graph is mutated first,
then the records are forwarded to whatever trees/balls/stacks are listening.

The structures read a graph only through ``node_ids``, ``node_count``,
``has_node`` and ``neighbors``, and on adjacency graphs alone also through
``edges`` (priority sampling, the shortcut graph's build and checks, the
harness).  A weight is read through those two; ``has_edge`` answers only
whether an edge is there (the checks of ``DynamicGraph.apply_update``).
:class:`AdjacencyGraph` implements the edge reads over a symmetric
adjacency map, and its ``apply_record`` is the one edge write behind
``DynamicGraph.apply_update``, the scaled mirrors of :mod:`decrsp.layered`
and the ball snapshots below.  Each holds its nodes once: the graph's ids
are ``range(n)``, a mirror reads them from its view, and a snapshot keeps
its own subset.  Beside the graph there are two views:

* :class:`InducedSnapshot` copies a graph's edges among a node subset.  It
  does not follow the parent by itself; its owner applies each parent
  change inside the subset to it (ball scopes in :mod:`decrsp.balls`).
* :class:`ArtificialSourceView` adds one virtual node connected by zero-weight
  edges to a fixed attachment set (used to measure distance to a node set via
  a single-source structure).  It holds no edge data of its own, so parent
  mutations show through immediately.

Update events, query probes and change records are ``typing.NamedTuple``
classes, so they are immutable: assigning a field raises ``AttributeError``.
Two records are equal when their fields are (tuple equality: a record also
equals the plain tuple of its fields), and the field order below is fixed,
as records are built by position.

A view filters no records: a change reaches only the structures whose view
holds its edge.  Routing lives in :class:`~decrsp.balls.BallSystem`, which
hands a change to an inner instance only when its scope holds both ends.
"""

from __future__ import annotations

import heapq
import re
from math import inf
from types import MappingProxyType
from typing import NamedTuple


MAX_NODES = 2**20  # the largest node count a graph file's header may declare
# The most digits an integer field may hold: sys.int_info.str_digits_check_threshold,
# the least limit PYTHONINTMAXSTRDIGITS takes, so int() reads every field alike.
MAX_DIGITS = 640


class GraphFormatError(ValueError):
    """Raised for malformed graph or update input."""


class UpdateError(ValueError):
    """Raised for updates that violate the decremental contract."""


class ParamConfigError(ValueError):
    """Raised when a structure's parameters violate their preconditions."""


class UpdateEvent(NamedTuple):
    """A requested change: delete an edge, or raise its weight to an absolute value."""

    kind: str  # "delete" | "increase"
    u: int
    v: int
    new_weight: int | None = None


class QueryProbe(NamedTuple):
    """A distance query interleaved into an update stream (``Q u v`` lines)."""

    u: int
    v: int


class ChangeRecord(NamedTuple):
    """What actually happened to the graph, as consumed by downstream structures."""

    kind: str  # "delete" | "increase"
    u: int
    v: int
    old_weight: int
    new_weight: int | None  # None for deletions


_NO_EDGES = MappingProxyType({})  # an isolated node's row, shared


class AdjacencyGraph:
    """Read protocol over a symmetric ``node -> {neighbor: weight}`` map.

    Both sides of an edge are always stored, and ``apply_record`` is the one
    way an edge changes after construction.  Each subclass holds its node
    set its own way and answers ``node_ids`` (ascending), ``node_count`` and
    ``has_node`` from it.
    """

    def __init__(self, max_weight):
        self.max_weight = max_weight
        self._adj = {}  # node -> {neighbor: weight}; absent node means isolated

    def has_edge(self, u, v):
        return v in self._adj.get(u, ())

    def neighbors(self, u):
        """Iterate (neighbor, weight) pairs.  Snapshot before mutating."""
        return self._adj.get(u, _NO_EDGES).items()

    def edges(self):
        """Yield (u, v, w) with u < v, deterministically."""
        for u in sorted(self._adj):
            for v, w in self._adj[u].items():
                if u < v:
                    yield (u, v, w)

    def apply_record(self, rec):
        """Write one change record's edge: delete it or set its new weight."""
        u, v = rec.u, rec.v
        if rec.kind == "delete":
            del self._adj[u][v], self._adj[v][u]
        else:
            self._adj[u][v] = self._adj[v][u] = rec.new_weight


class DynamicGraph(AdjacencyGraph):
    """Undirected graph with integer weights in [1, max_weight], decremental only."""

    def __init__(self, n, max_weight=1):
        if n < 0 or max_weight < 1:
            raise GraphFormatError(
                "need n >= 0 and max_weight >= 1, got n=%r max_weight=%r" % (n, max_weight)
            )
        super().__init__(max_weight)
        self.n = n
        self.edge_count = 0

    # -- construction -----------------------------------------------------

    def add_edge(self, u, v, w):
        """Insert an edge at build time (the update stream never inserts)."""
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise GraphFormatError("self-loop (%d, %d)" % (u, v))
        if not (1 <= w <= self.max_weight):
            raise GraphFormatError(
                "weight %r outside [1, %d] on edge (%d, %d)" % (w, self.max_weight, u, v)
            )
        if v in self._adj.get(u, ()):
            raise GraphFormatError("duplicate edge (%d, %d)" % (u, v))
        self._adj.setdefault(u, {})[v] = w
        self._adj.setdefault(v, {})[u] = w
        self.edge_count += 1

    def _check_node(self, u):
        if not self.has_node(u):
            raise GraphFormatError("node id %r outside [0, %d)" % (u, self.n))

    def node_ids(self):
        return range(self.n)

    def node_count(self):
        return self.n

    def has_node(self, u):
        return type(u) is int and 0 <= u < self.n  # not bool: True == 1

    # -- mutation ---------------------------------------------------------

    def apply_update(self, event):
        """Apply one UpdateEvent; returns the ChangeRecord describing it.

        An event the graph cannot take (a node outside it, a missing edge, a
        weight that does not rise or passes the bound) raises ``UpdateError``
        and changes nothing."""
        u, v = event.u, event.v
        if not (self.has_node(u) and self.has_node(v)):
            raise UpdateError("node id %r outside [0, %d)" % (v if self.has_node(u) else u, self.n))
        if not self.has_edge(u, v):
            raise UpdateError("edge (%d, %d) not present" % (u, v))
        old = self._adj[u][v]
        if event.kind == "delete":
            rec = ChangeRecord("delete", u, v, old, None)
            self.edge_count -= 1
        elif event.kind == "increase":
            w = event.new_weight
            if not isinstance(w, int) or w <= old:
                raise UpdateError(
                    "increase on (%d, %d) must exceed current weight %d, got %r"
                    % (u, v, old, w)
                )
            if w > self.max_weight:
                raise UpdateError(
                    "increase on (%d, %d) to %d exceeds weight bound %d"
                    % (u, v, w, self.max_weight)
                )
            rec = ChangeRecord("increase", u, v, old, w)
        else:
            raise UpdateError("unknown update kind %r" % (event.kind,))
        self.apply_record(rec)
        return rec


# -- file formats ----------------------------------------------------------


def _lines(stream):
    """Yield ``(lineno, text, fields)`` for each line of ``stream`` that holds a field.

    Both file formats share this grammar: ``#`` starts a comment, fields are
    separated by spaces and tabs only, and ``text`` is the line without its
    comment and without the spaces, tabs and line end around it.  A field of
    more than ``MAX_DIGITS`` digits is a ``GraphFormatError`` here, before any
    ``int()`` reads it.
    """
    for lineno, raw in enumerate(stream, start=1):
        text = raw.split("#", 1)[0].strip(" \t\r\n")
        if text:
            fields = re.split("[ \t]+", text)
            for f in fields:
                if len(f) > MAX_DIGITS and re.fullmatch("-?[0-9]{%d,}" % (MAX_DIGITS + 1), f):
                    raise GraphFormatError("line %d: integer field above the digit cap %d"
                                           % (lineno, MAX_DIGITS))
            yield lineno, text, fields


def _integers(fields):
    """The ints that ``fields`` spell; ``ValueError`` unless each is ASCII ``-?[0-9]+``
    (``int()`` alone would also read ``+3``, ``1_0`` and non-ASCII digits)."""
    if not all(re.fullmatch("-?[0-9]+", f) for f in fields):
        raise ValueError
    return [int(f) for f in fields]


def load_graph(stream):
    """Parse the text graph format: header ``n m W``, then ``u v w`` lines.

    Blank lines and ``#`` comments are ignored.  Raises GraphFormatError with
    the offending line number on malformed input.
    """
    header = None
    graph = None
    seen = 0
    for lineno, _, parts in _lines(stream):
        if header is None:
            if len(parts) != 3:
                raise GraphFormatError("line %d: header must be 'n m W'" % lineno)
            try:
                n, m, w_max = _integers(parts)
            except ValueError:
                raise GraphFormatError("line %d: non-integer header field" % lineno)
            if n < 0 or m < 0 or w_max < 1:
                raise GraphFormatError("line %d: invalid header values" % lineno)
            if n > MAX_NODES:  # before DynamicGraph is built: structures hold per-node state
                raise GraphFormatError("line %d: n=%d above the node cap %d"
                                       % (lineno, n, MAX_NODES))
            header = (n, m, w_max)
            graph = DynamicGraph(n, w_max)
            continue
        if len(parts) != 3:
            raise GraphFormatError("line %d: edge must be 'u v w'" % lineno)
        try:
            u, v, w = _integers(parts)
        except ValueError:
            raise GraphFormatError("line %d: non-integer edge field" % lineno)
        try:
            graph.add_edge(u, v, w)
        except GraphFormatError as exc:
            raise GraphFormatError("line %d: %s" % (lineno, exc))
        seen += 1
    if header is None:
        raise GraphFormatError("empty graph input")
    if seen != header[1]:
        raise GraphFormatError("header announced %d edges, found %d" % (header[1], seen))
    return graph


def update_line(item):
    """An update event or query probe as the line ``parse_update_stream`` reads."""
    if isinstance(item, QueryProbe):
        return "Q %d %d" % (item.u, item.v)
    if item.kind == "delete":
        return "D %d %d" % (item.u, item.v)
    return "I %d %d %d" % (item.u, item.v, item.new_weight)


def parse_update_stream(stream):
    """Parse update lines: ``D u v``, ``I u v w``, and query probes ``Q u v``."""
    out = []
    for lineno, text, parts in _lines(stream):
        try:
            if parts[0] == "D" and len(parts) == 3:
                out.append(UpdateEvent("delete", *_integers(parts[1:])))
            elif parts[0] == "I" and len(parts) == 4:
                out.append(UpdateEvent("increase", *_integers(parts[1:])))
            elif parts[0] == "Q" and len(parts) == 3:
                out.append(QueryProbe(*_integers(parts[1:])))
            else:
                raise ValueError
        except ValueError:
            raise GraphFormatError("line %d: malformed update %r" % (lineno, text))
    return out


# -- views ------------------------------------------------------------------


class InducedSnapshot(AdjacencyGraph):
    """A copy of a parent view's edges among a fixed node subset.

    Each row lists the parent's neighbours in the parent's order, so a scan
    sees them in the same sequence as on the parent.  After construction
    the copy changes only through ``apply_record``: its owner passes in each
    parent change whose endpoints both lie in the subset.
    """

    def __init__(self, parent, nodes):
        super().__init__(parent.max_weight)
        self.node_set = inside = frozenset(nodes)
        self._ids = tuple(sorted(inside))
        for u in self._ids:
            row = {v: w for v, w in parent.neighbors(u) if v in inside}
            if row:
                self._adj[u] = row

    def node_ids(self):
        return self._ids

    def node_count(self):
        return len(self._ids)

    def has_node(self, u):
        return u in self.node_set


class ArtificialSourceView:
    """Parent view plus one virtual node joined to ``attach`` by zero-weight edges.

    The virtual node id is one past the largest parent id, exposed as
    ``source_id``.  The attachment set is frozen at construction; update
    records pass through untouched (they can only concern parent edges).
    """

    def __init__(self, parent, attach):
        self.parent = parent
        self.attach = tuple(sorted(set(attach)))
        self.source_id = max(parent.node_ids(), default=-1) + 1
        for a in self.attach:
            if not parent.has_node(a):
                raise ParamConfigError("attachment %r outside parent view" % (a,))
        self._attach_set = frozenset(self.attach)

    @property
    def max_weight(self):
        return self.parent.max_weight

    def node_ids(self):
        for u in self.parent.node_ids():
            yield u
        yield self.source_id

    def node_count(self):
        return self.parent.node_count() + 1

    def has_node(self, u):
        return u == self.source_id or self.parent.has_node(u)

    def neighbors(self, u):
        if u == self.source_id:
            return [(a, 0) for a in self.attach]
        if u in self._attach_set:
            return [*self.parent.neighbors(u), (self.source_id, 0)]
        return self.parent.neighbors(u)


# -- bounded Dijkstra --------------------------------------------------------


def dijkstra_bounded(view, source, bound):
    """Exact distances from node ``source`` up to and including ``bound``.

    Returns {node: distance} containing only nodes whose distance is <= bound.
    A node is enqueued only when its tentative distance improves and stays
    within the bound, so the cost is proportional to the explored region
    only.  Distance to a node set is distance from the virtual source of an
    :class:`ArtificialSourceView`.
    """
    if not view.has_node(source):
        raise ParamConfigError("source %r outside view" % (source,))
    dist = {}
    if bound < 0:
        return dist
    tentative = {source: 0}  # settled nodes keep their distance, so never improve
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in dist:
            continue
        dist[u] = d
        for v, w in view.neighbors(u):
            nd = d + w
            if nd <= bound and nd < tentative.get(v, inf):
                tentative[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist
