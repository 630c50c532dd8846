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

The search runs over (node, arrival-mark) states, which is sound because
the walk constraints at an occurrence depend only on that state and the
chosen departure. The graph is compiled into an int-state form (see
``_Compiled``), once per :func:`mu_separated` call and once per
:class:`GraphicalOracle`. A query's node ids become search states by one
lookup each in that form's maps (node index for the sources and
conditioning set, head state for the targets), and the lookup is the
query's validation: any value equal to a node id names that node
(``1``, ``np.int64(1)``, but also ``1.0`` or ``True``), and ``1.5`` or
``"1"`` raise :class:`GraphError`.

The set of states reachable from ``A`` given ``C`` does not depend on the
targets, so the search is an object that can pause and resume (see
``_Search``): it stops at the first target it reaches, and a later query
with the same ``A`` and ``C`` answers from the states already seen or
resumes where it stopped. :func:`mu_separated` runs a fresh search per
call; :class:`GraphicalOracle` keeps one per (sources, conditioning set).

The walk-level checkers that cross-validate the search against the
definition (walk enumeration, a single-walk check) are test code and live
in ``tests/helpers.py``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable

from .graphs import DirectedMixedGraph, GraphError, latent_projection
# Not called here; importable from this module because perfbench/tracing.py
# patches it by name.
from .graphs import ancestors

__all__ = [
    "mu_separated",
    "SeparationQuery",
    "GraphicalOracle",
]

HEAD = 1
TAIL = 0


class _Compiled:
    """Int-state form of one graph, answering separation by reachability.

    Nodes are renumbered to ``0..N-1`` in sorted id order, and a walk state
    (node ``i``, arrival mark ``m``) becomes the int ``2*i + m``; ``index``
    maps each id to ``i`` and ``head`` maps it to its head state. Per node
    there are three successor tuples over those states, read off the
    graph's adjacency maps: departures by head (to each parent, arriving by
    tail, and to each sibling, arriving by head), departures by tail (to
    each child, arriving by head), and both together. The loop ``v -> v``
    is in ``v``'s parents and children, so it contributes both of its
    orientations. Ancestor sets are int bitmasks over the renumbered nodes,
    one per node, filled on first use, so that anc(C) is the OR of the
    masks of C. The form depends only on the graph, which is immutable;
    its one owner fills the masks, and an oracle does so under its lock.
    """

    __slots__ = ("index", "head", "head_out", "tail_out", "all_out", "parents", "anc")

    def __init__(self, g: DirectedMixedGraph):
        self.index = index = {v: i for i, v in enumerate(g.nodes)}
        self.head = {v: 2 * i + HEAD for v, i in index.items()}
        parents, children, siblings = g._parents, g._children, g._siblings
        head_out, tail_out, par = [], [], []
        for v in g.nodes:
            ps = tuple(index[p] for p in parents[v])
            par.append(ps)
            head_out.append(tuple([2 * p + TAIL for p in ps]
                                  + [2 * index[s] + HEAD for s in siblings[v]]))
            tail_out.append(tuple(2 * index[c] + HEAD for c in children[v]))
        self.head_out = tuple(head_out)
        self.tail_out = tuple(tail_out)
        self.all_out = tuple(h + t for h, t in zip(head_out, tail_out))
        self.parents = tuple(par)
        self.anc = [0] * len(index)

    def ancestor_mask(self, i: int) -> int:
        """Bitmask of the ancestors of node ``i`` (``i`` included)."""
        mask = self.anc[i]
        if not mask:
            mask = 1 << i
            stack = [i]
            parents = self.parents
            while stack:
                for p in parents[stack.pop()]:
                    bit = 1 << p
                    if not mask & bit:
                        mask |= bit
                        stack.append(p)
            self.anc[i] = mask
        return mask


_EMPTY_QUERY = "source and target sets must be nonempty"


def _lookup(index: dict, nodes) -> set:
    """``index``'s values for ``nodes``; an id that is not a key is unknown."""
    try:
        return {index[v] for v in nodes}
    except KeyError as exc:
        raise GraphError(f"unknown nodes {[exc.args[0]]}") from None


def _heads(form: _Compiled, targets) -> set:
    """The head states of ``targets``, which must be known and nonempty."""
    heads = _lookup(form.head, targets)
    if not heads:
        raise GraphError(_EMPTY_QUERY)
    return heads


class _Search:
    """Breadth-first search of the states reachable from A given C, paused at will.

    ``seen`` marks every state discovered so far, and ``queue`` lists them
    in discovery order, of which the first ``done`` are expanded. Neither
    depends on the targets: a state's successors depend only on the state,
    C and anc(C), both kept as bitmasks over the renumbered nodes. So one
    search serves every target set queried with the same A and C.
    :meth:`reaches` answers from ``seen`` when it can and otherwise resumes
    the search, stopping at the first target state it discovers. At every
    pause all successors of each expanded state are in ``seen``, so the
    search can resume for the next target set.
    """

    __slots__ = ("form", "cmask", "anc", "seen", "queue", "done")

    def __init__(self, form: _Compiled, sources, given):
        a, cs = _lookup(form.index, sources), _lookup(form.index, given)
        if not a:
            raise GraphError(_EMPTY_QUERY)
        masks = form.anc
        cmask = anc = 0
        for i in cs:
            cmask |= 1 << i
            anc |= masks[i] or form.ancestor_mask(i)
        self.form = form
        self.cmask = cmask
        self.anc = anc
        self.seen = seen = bytearray(2 * len(form.index))
        # A source departs freely, as from a tail arrival outside C.
        self.queue = queue = []
        self.done = 0
        for i in a - cs:
            s = 2 * i + TAIL
            seen[s] = 1
            queue.append(s)

    def reaches(self, heads: set) -> bool:
        """True when a state in ``heads`` (head arrivals at targets) is reachable."""
        seen = self.seen
        for t in heads:
            if seen[t]:
                return True
        queue, k = self.queue, self.done
        form, cmask, anc = self.form, self.cmask, self.anc
        head_out, tail_out, all_out = form.head_out, form.tail_out, form.all_out
        push = queue.append
        hit = False
        while k < len(queue):
            s = queue[k]
            k += 1
            v = s >> 1
            if cmask >> v & 1:
                # a noncollider must avoid C; a collider in C is in anc(C)
                if s & HEAD:
                    succ = head_out[v]
                else:
                    continue
            elif s & HEAD and not anc >> v & 1:
                succ = tail_out[v]   # collider must be an ancestor of C
            else:
                succ = all_out[v]
            for w in succ:
                if not seen[w]:
                    seen[w] = 1
                    push(w)
                    if w in heads:
                        # finish this state, so the paused search stays whole
                        hit = True
            if hit:
                break
        self.done = k
        return hit


def mu_separated(g: DirectedMixedGraph, sources: Iterable[int],
                 targets: Iterable[int], given: Iterable[int] = ()) -> bool:
    """True when ``targets`` is separated from ``sources`` given ``given``.

    Searches the (node, arrival-mark) states of the graph's compiled form;
    reaching a head arrival at a node of ``targets`` witnesses a
    connecting walk. Each call compiles the graph and keeps nothing.

    >>> g = DirectedMixedGraph(3, directed=[(0, 1), (1, 2)])
    >>> mu_separated(g, {0}, {2}, {1})
    True
    >>> mu_separated(g, {0}, {2})
    False
    """
    search = _Search(_Compiled(g), sources, given)
    return not search.reaches(_heads(search.form, targets))


# -- the local-independence oracle ----------------------------------------

# Paused searches one oracle keeps before it drops them all and starts
# again; each takes about 1 KB on small graphs. CA on n observed nodes asks
# n * 2**(n-1) (sources, conditioning set) pairs but reuses only those of
# the source it is on, so the bound caps memory and costs CA little reuse.
_MAX_SEARCHES = 1 << 14


@dataclass(frozen=True)
class SeparationQuery:
    """One oracle query and its answer (True means independent/separated)."""
    sources: frozenset
    targets: frozenset
    given: frozenset
    independent: bool


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
    the oracle's own compiled form of it is the one place a query is
    validated. The oracle also keeps its call counter, the optional log and
    one paused search per (sources, conditioning set) it has been asked
    about. CA asks the same sources and conditioning set for every target,
    so a repeat answers from the states that search already reached, or
    resumes it. A repeat validates only its targets, as the sources and
    conditioning set were validated when the search was made. The searches
    are freed with the oracle, or all at once when there are
    ``_MAX_SEARCHES`` of them. The oracle's lock serializes queries, so one
    oracle can be shared across threads.

    Parameters
    ----------
    truth : DirectedMixedGraph
        Hidden ground truth; queries are answered by separation in it.
    observed : iterable of node ids, optional
        Queryable nodes (default: all truth nodes, and no projection).
    keep_log : bool
        Record every query as a :class:`SeparationQuery`.
    """

    def __init__(self, truth: DirectedMixedGraph, observed=None, *,
                 keep_log: bool = False):
        self._graph = truth if observed is None else latent_projection(truth, observed)
        self._form = _Compiled(self._graph)
        self._searches: dict = {}
        self._calls = 0
        self._lock = threading.Lock()
        self._log = [] if keep_log else None

    @property
    def observed(self) -> frozenset:
        return self._graph.node_set

    @property
    def calls(self) -> int:
        return self._calls

    @property
    def log(self):
        return tuple(self._log) if self._log is not None else None

    def label(self, v: int) -> str:
        return self._graph.label(v)

    def query(self, sources, targets, given=()) -> bool:
        """True when ``targets`` is independent of ``sources`` given ``given``."""
        # Freeze what is read twice, so one-shot iterators work: sources and
        # given make the memo key and seed the search; the log keeps targets.
        sources, given = frozenset(sources), frozenset(given)
        if self._log is not None:
            targets = frozenset(targets)
        key = (sources, given)
        with self._lock:
            search = self._searches.get(key)
            if search is None:
                search = _Search(self._form, sources, given)
                if len(self._searches) >= _MAX_SEARCHES:
                    self._searches.clear()
                self._searches[key] = search
            answer = not search.reaches(_heads(self._form, targets))
            self._calls += 1
            if self._log is not None:
                self._log.append(SeparationQuery(sources, targets, given, answer))
        return answer
