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
Every pair stage is one loop, ``_screen``: for each ordered pair (a, b)
still carrying an edge, query a against b given each set of the stage's
set rule in turn; the first independent answer deletes a -> b and becomes
its certificate. Self-pairs are never tested; loops are never deleted.

* trek (``trek_step``): {b}. Independence rules out any trek into b from
  a. Exactly n(n-1) queries.
* parent (``parent_step``): pa(b) minus a (b's loop keeps b in it), read
  live from the mutating graph, not from a snapshot.
* CA: every subset of the observed nodes other than a, by increasing size,
  lexicographic within a size.

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
baseline, runs the CA stage alone. TREK_ONLY stops after the trek step.

The cheap and tested propagation steps assume the oracle is faithful to
some ground-truth graph (a graphical oracle is); under an unfaithful
oracle they can over-delete, which is why they are separate algorithms
and not part of CS.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from itertools import chain, combinations, permutations
from typing import Sequence

from .graphs import DirectedMixedGraph, GraphError

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


class _Work:
    """Mutable working copy of a directed graph, kept as one parent set per node."""

    def __init__(self, nodes: Sequence[int]):
        self.nodes = tuple(sorted(nodes))
        self.parents = {b: set(self.nodes) for b in self.nodes}

    def has(self, a: int, b: int) -> bool:
        return a in self.parents[b]

    def remove(self, a: int, b: int) -> None:
        self.parents[b].discard(a)

    @classmethod
    def from_graph(cls, g: DirectedMixedGraph) -> "_Work":
        if g.bidirected:
            raise GraphError("screening works on directed graphs only")
        w = cls.__new__(cls)
        w.nodes = g.nodes
        w.parents = {b: set(g.parents(b)) for b in g.nodes}
        return w

    def freeze(self, labels=None) -> DirectedMixedGraph:
        edges = [(a, b) for b, ps in self.parents.items() for a in ps]
        return DirectedMixedGraph(self.nodes, edges, (), labels=labels)


def _ordered_pairs(nodes: Sequence[int], order: str, seed: int):
    pairs = list(permutations(sorted(nodes), 2))
    if order == "random":
        random.Random(seed).shuffle(pairs)
    elif order != "lex":
        raise ValueError(f"unknown pair order {order!r}")
    return pairs


def _observed(oracle, observed) -> tuple[int, ...]:
    if observed is None:
        observed = oracle.observed
    return tuple(sorted(observed))


# -- the pair loop and the triple sweep (operate on _Work) -----------------


def _screen(oracle, work, pairs, stage, sets, trace, certs):
    """Delete each present a -> b at the first ``given`` in ``sets`` that separates."""
    for a, b in pairs:
        if not work.has(a, b):
            continue
        for given in sets(work, a, b):
            if oracle.query({a}, {b}, given):
                work.remove(a, b)
                certs[(a, b)] = frozenset(given)
                trace.append(TraceEntry((a, b), "removed", stage))
                break
        else:
            trace.append(TraceEntry((a, b), "kept", stage))


def _trek_sets(work, a, b):
    return ((b,),)


def _parent_sets(work, a, b):
    return (frozenset(work.parents[b] - {a}),)


def _ca_sets(work, a, b):
    rest = [v for v in work.nodes if v != a]
    return chain.from_iterable(combinations(rest, k) for k in range(len(rest) + 1))


def _propagate(work, trace, front, test):
    """Batch-delete b -> c for each triple (a, b, c) passing ``front`` and ``test``."""
    doomed = set()
    nodes = work.nodes
    for a in nodes:
        for b in nodes:
            if b == a or not front(work, a, b):
                continue
            for c in nodes:
                if c in (a, b) or not work.has(b, c) or work.has(a, c):
                    continue
                if test(a, c):
                    doomed.add((b, c))
    for b, c in sorted(doomed):
        work.remove(b, c)
        trace.append(TraceEntry((b, c), "removed", "ancestry"))


def _one_way(work, a, b):
    return work.has(a, b) and not work.has(b, a)


def _either_way(work, a, b):
    return work.has(a, b) or work.has(b, a)


# -- public single-step operations -----------------------------------------


def trek_step(oracle, observed=None) -> DirectedMixedGraph:
    """Screen the complete graph down to pairs with a trek into the target.

    Uses exactly n(n-1) oracle calls for n observed nodes.
    """
    obs = _observed(oracle, observed)
    work = _Work(obs)
    _screen(oracle, work, _ordered_pairs(obs, "lex", 0), "trek", _trek_sets, [], {})
    return work.freeze([oracle.label(v) for v in sorted(obs)])


def parent_step(oracle, dg: DirectedMixedGraph) -> DirectedMixedGraph:
    """One live pass of parent-set tests over the present edges of ``dg``."""
    work = _Work.from_graph(dg)
    _screen(oracle, work, _ordered_pairs(work.nodes, "lex", 0), "parent", _parent_sets, [], {})
    return work.freeze(dg.labels())


def ancestry_propagation_cheap(dg: DirectedMixedGraph) -> DirectedMixedGraph:
    """Query-free batch deletion of edges contradicted by ancestry patterns."""
    work = _Work.from_graph(dg)
    _propagate(work, [], _one_way, lambda a, c: True)
    return work.freeze(dg.labels())


def ancestry_propagation(oracle, dg: DirectedMixedGraph) -> DirectedMixedGraph:
    """Batch deletion driven by marginal-independence queries on triples."""
    work = _Work.from_graph(dg)
    _propagate(work, [], _either_way, lambda a, c: oracle.query({a}, {c}, ()))
    return work.freeze(dg.labels())


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
    obs = _observed(oracle, observed)
    if len(obs) < 1:
        raise GraphError("observed set must be nonempty")
    pairs = _ordered_pairs(obs, order, seed)

    work = _Work(obs)
    trace: list = []
    certs: dict = {}
    calls_before = oracle.calls

    if algorithm is Algorithm.CA:
        _screen(oracle, work, pairs, "ca", _ca_sets, trace, certs)
    else:
        _screen(oracle, work, pairs, "trek", _trek_sets, trace, certs)
        if algorithm is Algorithm.CSAPC:
            _propagate(work, trace, _one_way, lambda a, c: True)
        elif algorithm is Algorithm.CSAP:
            _propagate(work, trace, _either_way, lambda a, c: oracle.query({a}, {c}, ()))
        if algorithm is not Algorithm.TREK_ONLY:
            _screen(oracle, work, pairs, "parent", _parent_sets, trace, certs)

    return LearnResult(
        graph=work.freeze([oracle.label(v) for v in sorted(obs)]),
        algorithm=algorithm,
        oracle_calls=oracle.calls - calls_before,
        certificates=certs,
        trace=tuple(trace),
    )
