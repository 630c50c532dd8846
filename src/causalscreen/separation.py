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
chosen departure. Each graph is compiled once into an int-state form (see
``_Compiled``) that every later query reuses. A query's node ids become
search states by one lookup in that form's index, and the lookup is the
query's validation: an id is valid exactly when it is a key there, so ints
and numpy ints pass and ``1.5`` or ``"1"`` raise :class:`GraphError`.
The walk-level checkers that cross-validate the search against the
definition (walk enumeration, a single-walk check) are test code and live
in ``tests/helpers.py``.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Iterable, TextIO

from .graphs import DirectedMixedGraph, GraphError, latent_projection
# Not called here; importable from this module because perfbench/tracing.py
# patches it by name.
from .graphs import ancestors

__all__ = [
    "HEAD",
    "TAIL",
    "mu_separated",
    "SeparationQuery",
    "GraphicalOracle",
]

HEAD = 1
TAIL = 0


class _Compiled:
    """Int-state form of one graph, answering separation by reachability.

    Nodes are renumbered to ``0..N-1`` in sorted id order, and a walk state
    (node ``i``, arrival mark ``m``) becomes the int ``2*i + m``. Per node
    there are three successor tuples over those states, read off the
    graph's adjacency maps: departures by head (to each parent, arriving by
    tail, and to each sibling, arriving by head), departures by tail (to
    each child, arriving by head), and both together. The loop ``v -> v``
    is in ``v``'s parents and children, so it contributes both of its
    orientations. Ancestor sets are int bitmasks over the renumbered nodes,
    one per node, filled on first use, so that anc(C) is the OR of the
    masks of C. The form depends only on the graph, which is immutable, so
    it is built once and cached on the graph; two threads that build it or
    fill the same mask at once store equal values.
    """

    __slots__ = ("index", "head_out", "tail_out", "all_out", "parents", "anc")

    def __init__(self, g: DirectedMixedGraph):
        self.index = index = {v: i for i, v in enumerate(g.nodes)}
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


def _compiled(g: DirectedMixedGraph) -> _Compiled:
    try:
        return g._cache["compiled"]
    except KeyError:
        pass
    form = _Compiled(g)
    g._cache["compiled"] = form
    return form


# Seen-set entry that marks a head arrival at a target.
_TARGET = 2


def mu_separated(g: DirectedMixedGraph, sources: Iterable[int],
                 targets: Iterable[int], given: Iterable[int] = ()) -> bool:
    """True when ``targets`` is separated from ``sources`` given ``given``.

    Searches the (node, arrival-mark) states of the graph's compiled form;
    reaching a head arrival at a node of ``targets`` witnesses a
    connecting walk.

    >>> g = DirectedMixedGraph(3, directed=[(0, 1), (1, 2)])
    >>> mu_separated(g, {0}, {2}, {1})
    True
    >>> mu_separated(g, {0}, {2})
    False
    """
    form = _compiled(g)
    index = form.index
    try:
        a = {index[v] for v in sources}
        b = {index[v] for v in targets}
        cs = {index[v] for v in given}
    except KeyError as exc:
        raise GraphError(f"unknown nodes {[exc.args[0]]}") from None
    if not a or not b:
        raise GraphError("source and target sets must be nonempty")
    starts = a - cs
    if not starts:
        return True
    head_out, tail_out, all_out = form.head_out, form.tail_out, form.all_out
    masks = form.anc
    anc = 0
    for i in cs:
        anc |= masks[i] or form.ancestor_mask(i)

    seen = bytearray(2 * len(index))
    for i in b:
        seen[2 * i + HEAD] = _TARGET
    # A source departs freely, as from a tail arrival outside C.
    queue = deque()
    for i in starts:
        s = 2 * i + TAIL
        seen[s] = 1
        queue.append(s)
    push, pop = queue.append, queue.popleft
    while queue:
        s = pop()
        v = s >> 1
        if v in cs:
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
            mark = seen[w]
            if not mark:
                seen[w] = 1
                push(w)
            elif mark == _TARGET:
                return False
    return True


# -- the local-independence oracle ----------------------------------------


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
    nodes and only those nodes (the truth itself when nothing is hidden).
    The projection is all the oracle keeps of the truth: its node set is
    the observed set, it carries the truth's labels, and
    :func:`mu_separated` on it is the one place a query is validated.

    Parameters
    ----------
    truth : DirectedMixedGraph
        Hidden ground truth; queries are answered by separation in it.
    observed : iterable of node ids, optional
        Queryable nodes (defaults to all truth nodes).
    keep_log : bool
        Record every query as a :class:`SeparationQuery`.
    """

    def __init__(self, truth: DirectedMixedGraph, observed=None, *,
                 keep_log: bool = False):
        self._graph = latent_projection(truth, truth.node_set if observed is None else observed)
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
        if self._log is not None:
            # freeze once, so one-shot iterators reach both search and log
            sources, targets, given = (frozenset(s) for s in (sources, targets, given))
        answer = mu_separated(self._graph, sources, targets, given)
        with self._lock:
            self._calls += 1
        if self._log is not None:
            self._log.append(SeparationQuery(sources, targets, given, answer))
        return answer

    def export_log_csv(self, fh: TextIO) -> None:
        """Write the query log as ``A;B;C;answer`` rows, labels |-joined."""
        if self._log is None:
            raise ValueError("oracle was created without keep_log")
        fh.write("A;B;C;answer\n")
        lab = self._graph.label
        for q in self._log:
            fh.write(";".join([
                "|".join(lab(v) for v in sorted(q.sources)),
                "|".join(lab(v) for v in sorted(q.targets)),
                "|".join(lab(v) for v in sorted(q.given)),
                "true" if q.independent else "false",
            ]) + "\n")
