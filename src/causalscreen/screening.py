"""Constraint-based screening of direct influences among observed processes.

All algorithms start from the complete directed graph over the observed
nodes (every ordered pair, plus the mandatory loops) and only ever delete
edges, so any sound run returns a supergraph of the true parent structure.
Queries go through a :class:`~causalscreen.separation.GraphicalOracle`-style
object exposing ``query(sources, targets, given) -> bool`` (True means
independent), ``observed``, ``calls`` and ``label(v)``, whose labels name
the learned graph's nodes; the oracle's call counter is the cost measure.

Building blocks
---------------
The only state is a parent map: a dict from each node, in id order, to
the set of its parents (``_complete`` for a fresh run, ``_parent_map``
for an input graph), frozen back into a graph by ``_graph``.

Every pair stage is one loop, ``_screen``: for each ordered pair (a, b)
still carrying an edge, query a against b given each set of the stage's
set rule in turn; the first independent answer deletes a -> b and becomes
its certificate. Self-pairs are never tested; loops are never deleted.

* trek (``trek_step``): {b}. Independence rules out any trek into b from
  a. Exactly n(n-1) queries.
* parent (``parent_step``): pa(b) minus a (b's loop keeps b in it), read
  live from the mutating graph, not from a snapshot.
* CA: every subset of the observed nodes other than a, by increasing size,
  lexicographic within a size; ``_ca_sets`` freezes them once per source.

Both ancestry propagations are one triple sweep, ``_propagate``: each
triple (a, b, c), in lexicographic order, with a front edge between a and
b, b -> c present and a -> c absent, schedules b -> c for deletion if its
test passes; deletions are applied as one sorted batch.

* ``ancestry_propagation_cheap``: front edge a -> b with b -> a absent; the
  test always passes, so no queries. If a reaches b, b cannot reach back
  and a is no ancestor of c, then b is no ancestor of c either.
* ``ancestry_propagation``: front edge a -> b or b -> a; the test is one
  query of a against c given the empty set, repeats included.

Compositions
------------
CS runs trek + parent; CSAPC inserts the cheap propagation between them;
CSAP inserts the tested propagation instead. CA, the exhaustive
baseline, runs the CA stage alone. TREK_ONLY stops after the trek step;
``trek_step`` returns that run's graph.

The cheap and tested propagation steps assume the oracle is faithful to
some ground-truth graph (a graphical oracle is); under an unfaithful
oracle they can over-delete, which is why they are separate algorithms
and not part of CS.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, permutations
from typing import Sequence

from ._numbers import integer
from .graphs import DirectedMixedGraph, GraphError, _transpose

__all__ = [
    "Algorithm",
    "TraceEntry",
    "LearnResult",
    "trek_step",
    "parent_step",
    "ancestry_propagation_cheap",
    "ancestry_propagation",
    "run",
]


class Algorithm(str, Enum):
    CS = "cs"
    CSAPC = "csapc"
    CSAP = "csap"
    CA = "ca"
    TREK_ONLY = "trek"


@dataclass(frozen=True)
class TraceEntry:
    """One screening decision: the edge it concerns, what happened, where."""
    edge: tuple[int, int]
    action: str        # "kept" or "removed"
    stage: str         # "trek", "ancestry", "parent", "ca"


@dataclass
class LearnResult:
    """Outcome of a screening run.

    ``certificates`` maps each removed edge to the separating set that
    justified the removal. Edges removed by the propagation stages carry no
    separating set for the pair itself; they appear in the trace with stage
    ``"ancestry"`` instead.
    """
    graph: DirectedMixedGraph
    algorithm: Algorithm
    oracle_calls: int
    certificates: dict
    trace: tuple


def _complete(nodes) -> dict:
    """The complete graph over ``nodes`` as a parent map: every node is every node's parent."""
    return {b: set(nodes) for b in nodes}


def _parent_map(g: DirectedMixedGraph) -> dict:
    """A mutable copy of ``g``: node -> set of its parents, nodes in id order."""
    if any(g._sib):
        raise GraphError("screening works on directed graphs only")
    return {b: set(g.parents(b)) for b in g.nodes}


def _graph(parents: dict, labels) -> DirectedMixedGraph:
    """Freeze a parent map into a graph, building its masks from the parent sets."""
    ids = tuple(integer(v, "node id", GraphError) for v in parents)
    # repeated observed ids collapse into one key but keep their labels
    if len(labels) != len(ids):
        raise GraphError(f"expected {len(ids)} labels, got {len(labels)}")
    bit = {v: 1 << i for i, v in enumerate(ids)}
    pa = tuple(sum(map(bit.__getitem__, ps)) for ps in parents.values())
    return DirectedMixedGraph._of_masks(ids, labels, pa, _transpose(pa), (0,) * len(ids))


def _ordered_pairs(nodes: Sequence[int], order: str, seed: int):
    pairs = list(permutations(sorted(nodes), 2))
    if order == "random":
        random.Random(seed).shuffle(pairs)
    elif order != "lex":
        raise ValueError(f"unknown pair order {order!r}")
    return pairs


# -- the pair loop and the triple sweep (operate on a parent map) ----------


def _screen(oracle, parents, pairs, stage, sets, trace, certs):
    """Delete each present a -> b at the first ``given`` in ``sets`` that separates."""
    query = oracle.query
    for a, b in pairs:
        if a not in parents[b]:
            continue
        source, target = frozenset((a,)), frozenset((b,))
        for given in sets(parents, a, b):
            if query(source, target, given):
                parents[b].discard(a)
                certs[(a, b)] = frozenset(given)
                trace.append(TraceEntry((a, b), "removed", stage))
                break
        else:
            trace.append(TraceEntry((a, b), "kept", stage))


def _trek_sets(parents, a, b):
    return ((b,),)


def _parent_sets(parents, a, b):
    return (frozenset(parents[b] - {a}),)


def _ca_sets():
    """CA's set rule, which freezes the subsets of the nodes other than a once per a.

    Only the current source's list is kept, so a run in random pair order
    rebuilds it whenever the source changes. A frozen subset passes through
    ``frozenset`` as itself, with its hash already cached.
    """
    current = {}

    def sets(parents, a, b):
        subsets = current.get(a)
        if subsets is None:
            rest = [v for v in parents if v != a]
            current.clear()
            current[a] = subsets = [frozenset(s) for k in range(len(rest) + 1)
                                    for s in combinations(rest, k)]
        return subsets

    return sets


def _propagate(parents, trace, front, test):
    """Batch-delete b -> c for each triple (a, b, c) passing ``front`` and ``test``."""
    doomed = set()
    for a in parents:
        for b in parents:
            if b == a or not front(parents, a, b):
                continue
            for c, pc in parents.items():
                if c in (a, b) or b not in pc or a in pc:
                    continue
                if test(a, c):
                    doomed.add((b, c))
    for b, c in sorted(doomed):
        parents[c].discard(b)
        trace.append(TraceEntry((b, c), "removed", "ancestry"))


def _one_way(parents, a, b):
    return a in parents[b] and b not in parents[a]


def _either_way(parents, a, b):
    return a in parents[b] or b in parents[a]


# -- public single-step operations -----------------------------------------


def trek_step(oracle, observed=None) -> DirectedMixedGraph:
    """Screen the complete graph down to pairs with a trek into the target.

    Uses exactly n(n-1) oracle calls for n observed nodes.
    """
    return run(Algorithm.TREK_ONLY, oracle, observed).graph


def parent_step(oracle, dg: DirectedMixedGraph) -> DirectedMixedGraph:
    """One live pass of parent-set tests over the present edges of ``dg``."""
    parents = _parent_map(dg)
    _screen(oracle, parents, _ordered_pairs(dg.nodes, "lex", 0), "parent", _parent_sets, [], {})
    return _graph(parents, dg.labels())


def ancestry_propagation_cheap(dg: DirectedMixedGraph) -> DirectedMixedGraph:
    """Query-free batch deletion of edges contradicted by ancestry patterns."""
    parents = _parent_map(dg)
    _propagate(parents, [], _one_way, lambda a, c: True)
    return _graph(parents, dg.labels())


def ancestry_propagation(oracle, dg: DirectedMixedGraph) -> DirectedMixedGraph:
    """Batch deletion driven by marginal-independence queries on triples."""
    parents = _parent_map(dg)
    _propagate(parents, [], _either_way, lambda a, c: oracle.query({a}, {c}, ()))
    return _graph(parents, dg.labels())


# -- composed runs ----------------------------------------------------------


def run(algorithm, oracle, observed=None, *, order: str = "lex",
        seed: int = 0) -> LearnResult:
    """Run one screening algorithm against an oracle.

    ``observed`` defaults to the oracle's observed set. ``order`` fixes the
    pair iteration of the trek/parent/CA loops ("lex", or "random" shuffled
    by ``seed``); the propagation stages always sweep triples
    lexicographically and apply removals as a batch, so their output does
    not depend on the order. Reported calls are the oracle-counter delta
    over the run.
    """
    algorithm = Algorithm(algorithm)
    obs = tuple(sorted(oracle.observed if observed is None else observed))
    if len(obs) < 1:
        raise GraphError("observed set must be nonempty")
    pairs = _ordered_pairs(obs, order, seed)

    parents = _complete(obs)
    trace: list = []
    certs: dict = {}
    calls_before = oracle.calls

    if algorithm is Algorithm.CA:
        _screen(oracle, parents, pairs, "ca", _ca_sets(), trace, certs)
    else:
        _screen(oracle, parents, pairs, "trek", _trek_sets, trace, certs)
        if algorithm is Algorithm.CSAPC:
            _propagate(parents, trace, _one_way, lambda a, c: True)
        elif algorithm is Algorithm.CSAP:
            _propagate(parents, trace, _either_way, lambda a, c: oracle.query({a}, {c}, ()))
        if algorithm is not Algorithm.TREK_ONLY:
            _screen(oracle, parents, pairs, "parent", _parent_sets, trace, certs)

    return LearnResult(
        graph=_graph(parents, [oracle.label(v) for v in obs]),
        algorithm=algorithm,
        oracle_calls=oracle.calls - calls_before,
        certificates=certs,
        trace=tuple(trace),
    )
