"""Separation of node sets by walks that end with an arrowhead.

The separation notion used throughout this package is asymmetric and
walk-based. A walk from ``a`` to ``b`` (edges may repeat, nodes may repeat)
is *connecting* given a conditioning set ``C`` when

* the source ``a`` is not in ``C``,
* the final edge has a head (arrowhead) at ``b``,
* every collider on the walk is an ancestor of ``C``, and
* no noncollider on the walk is in ``C``.

``B`` is separated from ``A`` given ``C`` when no connecting walk exists
from any node of ``A`` to any node of ``B``. The head-at-target condition
makes the relation directional: it asks whether the past of ``A`` can still
enter the present of ``B`` once the histories in ``C`` are known, so
conditioning on the target's own past (``C`` meeting ``B``) is legal and
common. ``A`` inside ``C`` separates vacuously.

A walk occurrence of a node is a collider when both the arriving and the
departing edge carry a head at it. A self-loop ``v -> v`` is an ordinary
edge whose two endpoint marks happen to sit at the same node: traversing it
departs by one end and arrives by the other (tail out, head in, or the
reverse).

The search lets a collider pass only when it is in ``C`` itself, which
gives the same answers. Walks may repeat edges, so a collider ``v`` in
anc(C) but not in ``C`` can leave by the tail of the first edge of a
shortest directed path ``v -> ... -> c`` into ``C``, collide at ``c`` and
come back along the same path to ``v``, then leave as before. The path's
inner nodes are outside ``C`` and each is a noncollider both ways, and
``v`` is now a noncollider twice (head in, tail out; tail in, head out).
The detour keeps the walk's source and its final edge, so a connecting
walk exists exactly when one exists whose colliders all lie in ``C``.

The search runs over (node, arrival-mark) states, which is sound because
the walk constraints at an occurrence depend only on that state and the
chosen departure. It runs a whole layer of states at a time: the states
with a tail arrival are one int bitmask over the nodes and those with a
head arrival another (see ``_reach``). It reads the graph's own node
masks, the one form its constructor builds and the latent projection also
runs on, so nothing is compiled per call or per oracle. A query's node
ids become bits by one lookup each in the graph's id-to-bit map, and the
lookup is the query's validation: any value equal to a node id names
that node (``1``, ``np.int64(1)``, but also ``1.0`` or ``True``), and
``1.5`` or ``"1"`` raise :class:`GraphError`.

The set of head arrivals reachable from ``A`` given ``C`` does not depend
on the targets. The search always computes the whole set; an answer is
one AND with the targets' mask, and :class:`GraphicalOracle` keeps the
set, one int per (sources, conditioning set), for every later target.

The same search also runs from the targets' side (see ``_into``). A walk
read backwards from ``b`` is a walk of the same kind: each occurrence's
departure mark takes the place of its arrival mark, an occurrence is a
collider exactly when both of its marks are heads either way, and the
pass rules (a noncollider avoids C, a collider is in C) are the same. The
reversed walk leaves ``b`` by the head of the final edge, so it arrives
at a parent of ``b`` by a tail and at a sibling by a head, and it may end
at any node outside C by either mark. So the search started from those
arrivals reaches, by tail or by head, exactly the nodes with a connecting
walk into ``B`` given ``C``, and those outside ``C`` are the sources from
which ``B`` is not separated. The trek test asks ``C = B`` for every
source, so one such closure per target answers all of them.

On graphs of at most ``_CLOSURE_NODES`` nodes the forward search also runs
for every conditioning set at once (see ``_closure``). The rules are the
same with the bits turned the other way: per node, one int holds a bit for
each C ⊆ V, set when the node is reached given that C. The sweep reaches
the same least fixpoint, one for each C, so reading bit C off the targets
gives the answer for C. CA asks every subset of the other nodes for each
source, and :class:`GraphicalOracle` answers a source from one such
closure once the source has asked enough distinct sets to pay for it.

The walk-level checkers that cross-validate the search against the
definition (walk enumeration, a single-walk check) are test code and live
in ``tests/helpers.py``.
"""

from __future__ import annotations

from typing import Iterable

from .graphs import DirectedMixedGraph, GraphError, _indices, latent_projection
# Not called here; importable from this module because perfbench/tracing.py
# patches it by name.
from .graphs import ancestors

__all__ = [
    "mu_separated",
    "GraphicalOracle",
]

_EMPTY_QUERY = "source and target sets must be nonempty"


def _unknown(exc: KeyError) -> GraphError:
    return GraphError(f"unknown nodes {[exc.args[0]]}")


def _mask(bit: dict, nodes) -> int:
    """The OR of ``bit``'s values for ``nodes``; an id that is not a key is unknown."""
    mask = 0
    try:
        for v in nodes:
            mask |= bit[v]
    except KeyError as exc:
        raise _unknown(exc) from None
    return mask


def _start(g: DirectedMixedGraph, sources, given) -> tuple:
    """The masks of A and C, validated in that order; A must be nonempty."""
    a, c = _mask(g._bit, sources), _mask(g._bit, given)
    if not a:
        raise GraphError(_EMPTY_QUERY)
    return a, c


def _reach(g: DirectedMixedGraph, tail: int, head: int, c: int) -> tuple:
    """The (tail, head) arrivals reachable given C from the arrivals given.

    Breadth first, a whole layer at a time, over two masks: ``tail``, the
    nodes reached by a tail arrival, and ``head``, those reached by a head
    arrival. A node departs by head, to its parents (arriving by tail) and
    siblings (arriving by head), when it was reached by tail outside C or
    by head inside C: a noncollider must avoid C, and a collider in C
    stands for every collider in anc(C) (see the module docstring). It
    departs by tail, to its children (arriving by head), when it was
    reached at all outside C. Each node departs each way once, and the
    search runs until no state is new.
    """
    pa, ch, sib = g._pa, g._ch, g._sib
    outside = ~c
    by_head = by_tail = 0
    while True:
        new_head = (tail & outside | head & c) & ~by_head
        new_tail = (tail | head) & outside & ~by_tail
        if not new_head | new_tail:
            return tail, head
        by_head |= new_head
        by_tail |= new_tail
        while new_head:
            low = new_head & -new_head
            new_head ^= low
            i = low.bit_length() - 1
            tail |= pa[i]
            head |= sib[i]
        while new_tail:
            low = new_tail & -new_tail
            new_tail ^= low
            head |= ch[low.bit_length() - 1]


def _from(g: DirectedMixedGraph, a: int, c: int) -> int:
    """The nodes with a head arrival reachable from A given C, as a mask.

    A source outside C counts as reached by a tail arrival, so it may
    depart either way.
    """
    return _reach(g, a & ~c, 0, c)[1]


def _into(g: DirectedMixedGraph, b: int, c: int) -> int:
    """The nodes outside C with a connecting walk into B given C, as a mask.

    The search runs backwards from B (see the module docstring): it starts
    from the parents of B, arrived at by tail, and the siblings of B,
    arrived at by head.
    """
    pa, sib = g._pa, g._sib
    tail = head = 0
    while b:
        low = b & -b
        b ^= low
        i = low.bit_length() - 1
        tail |= pa[i]
        head |= sib[i]
    tail, head = _reach(g, tail, head, c)
    return (tail | head) & ~c


def _tables(g: DirectedMixedGraph) -> tuple:
    """What ``_closure`` reads of a graph: per node, the conditioning sets
    that hold it and those that do not, and its parents, children and
    siblings as index tuples.

    Bit c of ``inside[j]`` is set when node j is in the set with node mask
    c; across c that is runs of 2**j clear bits and 2**j set bits, which is
    the set half of each 2**(j+1)-bit period, repeated over all 2**n bits.
    """
    n = g.n
    full = (1 << (1 << n)) - 1
    inside = tuple(full // ((1 << (2 << j)) - 1) * (((1 << (1 << j)) - 1) << (1 << j))
                   for j in range(n))
    outside = tuple(full ^ m for m in inside)
    return (inside, outside, *(tuple(map(_indices, masks))
                               for masks in (g._pa, g._ch, g._sib)))


def _closure(tables: tuple, a: int) -> list:
    """Head arrivals from A given every conditioning set, one int per node.

    ``_reach``'s rules transposed: a bit per conditioning set instead of a
    bit per node. Bit c of entry v is set when v is reached from A by a
    head arrival given the set whose node mask is c, so it equals bit v of
    ``_from(g, a, c)`` on the graph ``g`` that ``tables`` were built from
    (see ``_tables``). ``tail`` and ``head`` hold, per node, the sets given
    which it is reached by a tail or a head arrival. A source starts as
    reached by tail given each set that does not hold it. A node departs by
    head, to its parents (by tail) and siblings (by head), given the sets in
    which it was reached by tail outside C or by head inside C, and by tail,
    to its children (by head), given those in which it was reached at all
    outside C. The sweep runs over the nodes until no departure is new. A
    node passes on its whole departure mask each time it grows; the bits
    already passed on change nothing where they arrive.

    The ints are 2**n bits wide, so this serves only small graphs: the
    oracle builds it on projections of at most ``_CLOSURE_NODES`` nodes.
    """
    inside, outside, parents, children, siblings = tables
    nodes = range(len(inside))
    tail = [outside[v] if a >> v & 1 else 0 for v in nodes]
    head = [0] * len(inside)
    by_head = head[:]
    by_tail = head[:]
    changed = True
    while changed:
        changed = False
        for v in nodes:
            t, h, out = tail[v], head[v], outside[v]
            gone = t & out | h & inside[v]
            if gone != by_head[v]:
                changed = True
                by_head[v] = gone
                for p in parents[v]:
                    tail[p] |= gone
                for s in siblings[v]:
                    head[s] |= gone
            gone = (t | h) & out
            if gone != by_tail[v]:
                changed = True
                by_tail[v] = gone
                for k in children[v]:
                    head[k] |= gone
    return head


def mu_separated(g: DirectedMixedGraph, sources: Iterable[int],
                 targets: Iterable[int], given: Iterable[int] = ()) -> bool:
    """True when ``targets`` is separated from ``sources`` given ``given``.

    Searches the graph's node masks; a head arrival at a node of
    ``targets`` witnesses a connecting walk. Each call runs the oracle's
    search to its end and keeps nothing.

    >>> g = DirectedMixedGraph(3, directed=[(0, 1), (1, 2)])
    >>> mu_separated(g, {0}, {2}, {1})
    True
    >>> mu_separated(g, {0}, {2})
    False
    """
    a, c = _start(g, sources, given)
    b = _mask(g._bit, targets)
    if not b:
        raise GraphError(_EMPTY_QUERY)
    return not _from(g, a, c) & b


# -- the local-independence oracle ----------------------------------------

# Entries one dict of an oracle keeps before it drops them all and starts
# again. A kept mask takes 600-800 bytes on 10- to 13-node graphs, most of
# it the key's frozensets. CA on n observed nodes asks n * 2**(n-1)
# (sources, conditioning set) pairs but reuses only those of the source it
# is on, so the bound caps memory and costs CA little reuse. Closures are
# kept under the same bound in a dict of their own; there are at most
# 2**_CLOSURE_NODES - 1 source sets to build them for.
_MAX_SEARCHES = 1 << 14

# Projections of at most this many nodes answer a source from its closure:
# the closure's ints are 2**n bits wide, 4,096 at 12 nodes.
_CLOSURE_NODES = 12

# The distinct forward searches of one source set after which the oracle
# builds its closure instead (ski rental: on 8-node graphs a closure costs
# about 15 forward searches).
_PROMOTE = 16


def _keep(store: dict, key, value):
    """Store ``value`` under ``key``, dropping everything first when full."""
    if len(store) >= _MAX_SEARCHES:
        store.clear()
    store[key] = value
    return value


class GraphicalOracle:
    """Answers independence queries by separation in a hidden truth graph.

    The oracle owns the ground-truth graph and exposes only queries over an
    observed subset of its nodes. Every call increments the counter, repeat
    queries included; the counter is the cost model of the screening
    algorithms. Invalid queries raise :class:`GraphError` and are not
    counted. Answers are deterministic.

    Queries are answered on the latent projection of the truth onto the
    observed set, which has the same separation statements among observed
    nodes and only those nodes; a caller that has projected the truth
    already passes the projection and no ``observed``. The projection is
    all the oracle keeps of the truth, and the lookup of a query's ids in
    the projection's id-to-bit map is the one place a query is
    validated. Ids are checked in the order sources, conditioning set,
    nonempty sources, targets.

    The oracle also keeps its call counter and what its searches found. A
    query whose conditioning set equals its target set (the trek test, and
    CA's ``C = {b}`` queries) is answered from the closure into C (see
    ``_into``), kept under the key C: every source of that target is one
    AND with it. Any other query is answered from the mask of head arrivals
    reachable from its sources, kept under the key (sources, conditioning
    set): CA asks the same pair for every target, so a repeat is one AND
    with the targets' mask. On a projection of at most ``_CLOSURE_NODES``
    nodes the oracle also counts each source set's searches, and at the
    ``_PROMOTE``-th builds the source's closure over every conditioning set
    (see ``_closure``): from then on each of that source's queries is a
    few lookups and one shift, whatever its conditioning set. The tables
    the closures read (``_tables``) are built at the first promotion and
    kept by the oracle; the graph itself never changes. CA promotes
    every source it screens from; a screen that asks each source fewer
    sets never does. A query answered from a kept result validates only
    what that result's search did not: its targets, its conditioning set,
    or, on the target side, its sources. The masks and the closures are
    freed with the oracle, or each kind all at once when there are
    ``_MAX_SEARCHES`` of it.

    An oracle belongs to one run: ``bench_run`` gives each (replicate,
    algorithm) its own.

    Parameters
    ----------
    truth : DirectedMixedGraph
        Hidden ground truth; queries are answered by separation in it.
    observed : iterable of node ids, optional
        Queryable nodes (default: all truth nodes, and no projection).
    """

    def __init__(self, truth: DirectedMixedGraph, observed=None):
        self._graph = truth if observed is None else latent_projection(truth, observed)
        self._searches: dict = {}
        # Only projections of at most _CLOSURE_NODES nodes get closures; on
        # larger ones _closures is None and no step looks for one. _misses
        # counts each source set's forward searches and _givens keeps the
        # node mask of each conditioning set a closure has answered; neither
        # has more than 2**_CLOSURE_NODES keys. _tables stays None until the
        # first closure.
        self._closures = {} if self._graph.n <= _CLOSURE_NODES else None
        self._tables = None
        self._misses: dict = {}
        self._givens: dict = {}
        self._calls = 0

    @property
    def observed(self) -> frozenset:
        return self._graph.node_set

    @property
    def calls(self) -> int:
        return self._calls

    def label(self, v: int) -> str:
        return self._graph.label(v)

    def _promote(self, sources: frozenset, a: int):
        """Count a search of ``sources``; at the ``_PROMOTE``-th, build its closure.

        The closure maps each node id to the node's int from ``_closure``
        with one more bit set above all 2**n of its sets, so that the OR
        over any nonempty target set is nonzero.
        """
        misses = self._misses
        missed = misses[sources] = misses.get(sources, 0) + 1
        if missed < _PROMOTE:
            return None
        g = self._graph
        if self._tables is None:
            self._tables = _tables(g)
        top = 1 << (1 << g.n)
        return _keep(self._closures, sources,
                     {v: h | top for v, h in zip(g.nodes, _closure(self._tables, a))})

    def query(self, sources, targets, given=()) -> bool:
        """True when ``targets`` is independent of ``sources`` given ``given``."""
        # Freeze what is read twice, so one-shot iterators work: sources and
        # given make the memo key and seed the search.
        sources, given = frozenset(sources), frozenset(given)
        g = self._graph
        bit = g._bit
        if given == targets:
            into = self._searches.get(given)
            if into is None:
                a, c = _start(g, sources, given)
                if not c:
                    raise GraphError(_EMPTY_QUERY)
                into = _keep(self._searches, given, _into(g, c, c))
            else:
                a = _mask(bit, sources)
                if not a:
                    raise GraphError(_EMPTY_QUERY)
            self._calls += 1
            return not a & into
        closures = self._closures
        closure = None if closures is None else closures.get(sources)
        if closure is None:
            key = (sources, given)
            reach = self._searches.get(key)
            if reach is None:
                a, c = _start(g, sources, given)
                if closures is not None:
                    closure = self._promote(sources, a)
                if closure is None:
                    reach = _keep(self._searches, key, _from(g, a, c))
            if closure is None:
                b = _mask(bit, targets)
                if not b:
                    raise GraphError(_EMPTY_QUERY)
                self._calls += 1
                return not reach & b
        c = self._givens.get(given)
        if c is None:
            c = self._givens[given] = _mask(bit, given)
        h = 0
        try:
            for v in targets:
                h |= closure[v]
        except KeyError as exc:
            raise _unknown(exc) from None
        if not h:
            raise GraphError(_EMPTY_QUERY)
        self._calls += 1
        return not h >> c & 1
