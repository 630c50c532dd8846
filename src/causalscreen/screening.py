"""Constraint-based screening of direct influences among observed processes.

All algorithms start from the complete directed graph over the observed
nodes (every ordered pair, plus the mandatory loops) and only ever delete
edges, so any sound run returns a supergraph of the true parent structure.
Queries go through a :class:`~causalscreen.separation.GraphicalOracle`-style
object exposing ``query(sources, targets, given) -> bool`` (True means
independent); the oracle's call counter is the cost measure.

Building blocks
---------------
* ``trek_step``: for each ordered pair (a, b), test a against b given
  {b}. Independence here rules out any trek into b from a, so the edge
  a -> b is deleted. Exactly n(n-1) queries; self-pairs are never tested
  and loops are never deletion candidates.
* ``parent_step``: one pass over the ordered pairs that still carry an
  edge, testing a against b given b's current parents minus a (the loop
  keeps b itself in the conditioning set). Parent sets are read live from
  the mutating graph, not from a snapshot.
* ``ancestry_propagation_cheap``: no queries. Delete b -> c whenever some
  a has a -> b present, b -> a absent, and a -> c absent: if a reaches b
  but b cannot reach back and a is no ancestor of c, then b cannot be an
  ancestor of c either. Conditions are evaluated against the input graph
  and deletions applied as one batch.
* ``ancestry_propagation``: the tested variant. For each ordered triple
  (a, b, c) with an edge between a and b (either direction), b -> c
  present and a -> c absent, query a against c given the empty set;
  independence schedules b -> c for the batch deletion. One query per
  matching triple, repeats included.

Compositions
------------
CS runs trek + parent; CSAPC inserts the cheap propagation between them;
CSAP inserts the tested propagation instead. CA is the exhaustive
baseline: per ordered pair, search conditioning sets by increasing
cardinality (lexicographic within a cardinality) until a separating set
appears or the candidates are exhausted. TREK_ONLY stops after the trek
step.

The cheap and tested propagation steps assume the oracle is faithful to
some ground-truth graph (a graphical oracle is); under an unfaithful
oracle they can over-delete, which is why they are separate algorithms
and not part of CS.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Optional, Sequence

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
    pairs = [(a, b) for a in sorted(nodes) for b in sorted(nodes) if a != b]
    if order == "lex":
        return pairs
    if order == "random":
        random.Random(seed).shuffle(pairs)
        return pairs
    raise ValueError(f"unknown pair order {order!r}")


def _labels_for(oracle, nodes) -> Optional[list]:
    label = getattr(oracle, "label", None)
    if label is None:
        return None
    return [label(v) for v in sorted(nodes)]


def _observed(oracle, observed) -> tuple[int, ...]:
    if observed is None:
        observed = oracle.observed
    return tuple(sorted(int(v) for v in observed))


# -- subalgorithm stages (operate on _Work, record trace/certificates) -----


def _trek_stage(oracle, work, pairs, trace, certs):
    for a, b in pairs:
        if oracle.query({a}, {b}, {b}):
            work.remove(a, b)
            certs[(a, b)] = frozenset({b})
            trace.append(TraceEntry((a, b), "removed", "trek"))
        else:
            trace.append(TraceEntry((a, b), "kept", "trek"))


def _parent_stage(oracle, work, pairs, trace, certs):
    for a, b in pairs:
        if not work.has(a, b):
            continue
        given = frozenset(work.parents[b] - {a})
        if oracle.query({a}, {b}, given):
            work.remove(a, b)
            certs[(a, b)] = given
            trace.append(TraceEntry((a, b), "removed", "parent"))
        else:
            trace.append(TraceEntry((a, b), "kept", "parent"))


def _cheap_ancestry_stage(work, trace):
    doomed = set()
    nodes = work.nodes
    for a in nodes:
        for b in nodes:
            if b == a or not work.has(a, b) or work.has(b, a):
                continue
            for c in nodes:
                if c in (a, b) or not work.has(b, c) or work.has(a, c):
                    continue
                doomed.add((b, c))
    for b, c in sorted(doomed):
        work.remove(b, c)
        trace.append(TraceEntry((b, c), "removed", "ancestry"))


def _tested_ancestry_stage(oracle, work, trace):
    doomed = set()
    nodes = work.nodes
    for a in nodes:
        for b in nodes:
            if b == a or not (work.has(a, b) or work.has(b, a)):
                continue
            for c in nodes:
                if c in (a, b) or not work.has(b, c) or work.has(a, c):
                    continue
                if oracle.query({a}, {c}, ()):
                    doomed.add((b, c))
    for b, c in sorted(doomed):
        work.remove(b, c)
        trace.append(TraceEntry((b, c), "removed", "ancestry"))


def _ca_stage(oracle, work, pairs, trace, certs):
    obs = set(work.nodes)
    for a, b in pairs:
        candidates = sorted(obs - {a})
        removed = False
        for k in range(len(candidates) + 1):
            for given in combinations(candidates, k):
                if oracle.query({a}, {b}, given):
                    work.remove(a, b)
                    certs[(a, b)] = frozenset(given)
                    trace.append(TraceEntry((a, b), "removed", "ca"))
                    removed = True
                    break
            if removed:
                break
        if not removed:
            trace.append(TraceEntry((a, b), "kept", "ca"))


# -- public single-step operations -----------------------------------------


def trek_step(oracle, observed=None, *, order: str = "lex", seed: int = 0) -> DirectedMixedGraph:
    """Screen the complete graph down to pairs with a trek into the target.

    Uses exactly n(n-1) oracle calls for n observed nodes.
    """
    obs = _observed(oracle, observed)
    work = _Work(obs)
    _trek_stage(oracle, work, _ordered_pairs(obs, order, seed), [], {})
    return work.freeze(_labels_for(oracle, obs))


def parent_step(oracle, dg: DirectedMixedGraph, *, order: str = "lex",
                seed: int = 0) -> DirectedMixedGraph:
    """One live pass of parent-set tests over the present edges of ``dg``."""
    work = _Work.from_graph(dg)
    _parent_stage(oracle, work, _ordered_pairs(work.nodes, order, seed), [], {})
    return work.freeze(dg.labels())


def ancestry_propagation_cheap(dg: DirectedMixedGraph) -> DirectedMixedGraph:
    """Query-free batch deletion of edges contradicted by ancestry patterns."""
    work = _Work.from_graph(dg)
    _cheap_ancestry_stage(work, [])
    return work.freeze(dg.labels())


def ancestry_propagation(oracle, dg: DirectedMixedGraph) -> DirectedMixedGraph:
    """Batch deletion driven by marginal-independence queries on triples."""
    work = _Work.from_graph(dg)
    _tested_ancestry_stage(oracle, work, [])
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
        _ca_stage(oracle, work, pairs, trace, certs)
    else:
        _trek_stage(oracle, work, pairs, trace, certs)
        if algorithm is Algorithm.CSAPC:
            _cheap_ancestry_stage(work, trace)
        elif algorithm is Algorithm.CSAP:
            _tested_ancestry_stage(oracle, work, trace)
        if algorithm is not Algorithm.TREK_ONLY:
            _parent_stage(oracle, work, pairs, trace, certs)

    return LearnResult(
        graph=work.freeze(_labels_for(oracle, obs)),
        algorithm=algorithm,
        oracle_calls=oracle.calls - calls_before,
        certificates=certs,
        trace=tuple(trace),
    )
