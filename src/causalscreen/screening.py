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
A run builds each node's one-node set once (``_singletons``), and every
query names its source and target by those sets.

* trek (``trek_step``): {b}, the target's own set, so the oracle sees
  ``given is targets``. Independence rules out any trek into b from a.
  Exactly n(n-1) queries.
* parent (``parent_step``): pa(b) minus a (b's loop keeps b in it), read
  live from the mutating graph, not from a snapshot, and frozen in one
  copy. Parent sets stay mutable, so a removal is O(1).
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

What a run keeps
----------------
A run returns its graph, its call count, its certificates and its trace,
and the trace is kept as decisions, not objects. Each stage returns its
trace record: the pairs it visited, in visiting order, and one byte per
pair, 0 for a pair skipped because its edge was gone, 1 for kept, 2 for
removed. The trek and parent stages share the run's pair list; the
propagation's pairs are its sorted deletions. ``LearnResult.trace``
decodes the ``TraceEntry`` tuple on each read. A certificate is the
conditioning set the oracle was asked with, not a copy: a trek
certificate is the target's one-node set.

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
from itertools import combinations, groupby, permutations
from operator import attrgetter
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


# Decision codes of a trace record, one byte per pair a stage visits: 0 for
# a pair skipped because its edge was already gone, then kept and removed.
_KEPT, _REMOVED = 1, 2
_ACTIONS = (None, "kept", "removed")
_CODES = {"kept": _KEPT, "removed": _REMOVED}


@dataclass(init=False)
class LearnResult:
    """Outcome of a screening run.

    ``certificates`` maps each removed edge to the separating set that
    justified the removal. Edges removed by the propagation stages carry no
    separating set for the pair itself; they appear in the trace with stage
    ``"ancestry"`` instead.

    The trace is stored as its record: per stage, in run order, the pairs
    the stage visited and one decision code per pair (skipped, kept or
    removed). ``trace`` decodes the ``TraceEntry`` tuple from it on each
    read, so the generated ``==`` and ``repr`` see that tuple. The
    constructor takes a trace and encodes it, one record segment per run
    of entries with the same stage; an action other than "kept" or
    "removed" is a ValueError.
    """
    graph: DirectedMixedGraph
    algorithm: Algorithm
    oracle_calls: int
    certificates: dict
    trace: tuple       # the property below, decoded from the record

    def __init__(self, graph: DirectedMixedGraph, algorithm: Algorithm,
                 oracle_calls: int, certificates: dict, trace: Sequence[TraceEntry]):
        self.graph = graph
        self.algorithm = algorithm
        self.oracle_calls = oracle_calls
        self.certificates = certificates
        record = []
        for stage, entries in groupby(trace, attrgetter("stage")):
            entries = tuple(entries)
            try:
                codes = bytes(_CODES[e.action] for e in entries)
            except KeyError as exc:
                raise ValueError(f"unknown trace action {exc.args[0]!r}") from None
            record.append((stage, tuple(e.edge for e in entries), codes))
        self._record = tuple(record)

    @classmethod
    def _of_record(cls, graph, algorithm, oracle_calls, certificates, record) -> "LearnResult":
        """A result whose trace record a run built, taken as it is."""
        result = cls(graph, algorithm, oracle_calls, certificates, ())
        result._record = record
        return result

    @property
    def trace(self) -> tuple:
        """Every decision of the run, in the order it was made."""
        return tuple(TraceEntry(pair, _ACTIONS[code], stage)
                     for stage, pairs, codes in self._record
                     for pair, code in zip(pairs, codes) if code)


def _complete(nodes) -> dict:
    """The complete graph over ``nodes`` as a parent map: every node is every node's parent."""
    return {b: set(nodes) for b in nodes}


def _parent_map(g: DirectedMixedGraph) -> dict:
    """A mutable copy of ``g``: node -> set of its parents, nodes in id order."""
    if any(g._sib):
        raise GraphError("screening works on directed graphs only")
    return {b: set(g.parents(b)) for b in g.nodes}


def _graph(parents: dict, labels) -> DirectedMixedGraph:
    """Freeze a parent map over int ids into a graph, masks from the parent sets."""
    ids = tuple(parents)
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


def _singletons(nodes) -> dict:
    """Each node's one-node set, built once so every query of a run shares it."""
    return {v: frozenset((v,)) for v in nodes}


# -- the pair loop and the triple sweep (operate on a parent map) ----------


def _screen(oracle, parents, pairs, single, stage, sets, certs) -> tuple:
    """Delete each present a -> b at the first ``given`` in ``sets`` that separates.

    Returns the stage's trace record: (stage, pairs, one code per pair).
    """
    query = oracle.query
    codes = bytearray(len(pairs))
    for i, pair in enumerate(pairs):
        a, b = pair
        pb = parents[b]
        if a not in pb:
            continue
        source, target = single[a], single[b]
        for given in sets(parents, single, a, b):
            if query(source, target, given):
                pb.discard(a)
                certs[pair] = given
                codes[i] = _REMOVED
                break
        else:
            codes[i] = _KEPT
    return stage, pairs, codes


def _trek_sets(parents, single, a, b):
    return (single[b],)


def _parent_sets(parents, single, a, b):
    # a is in pa(b), so {a} ^ pa(b) is pa(b) \ {a}: one frozenset, copied
    # from pa(b) with a dropped
    return (single[a] ^ parents[b],)


def _ca_sets():
    """CA's set rule, which freezes the subsets of the nodes other than a once per a.

    Only the current source's list is kept, so a run in random pair order
    rebuilds it whenever the source changes. A frozen subset passes through
    ``frozenset`` as itself, with its hash already cached.
    """
    current = {}

    def sets(parents, single, a, b):
        subsets = current.get(a)
        if subsets is None:
            rest = [v for v in parents if v != a]
            current.clear()
            current[a] = subsets = [frozenset(s) for k in range(len(rest) + 1)
                                    for s in combinations(rest, k)]
        return subsets

    return sets


def _propagate(parents, front, test) -> tuple:
    """Batch-delete b -> c for each triple (a, b, c) passing ``front`` and ``test``.

    Returns the stage's trace record: the deleted pairs, sorted, which is
    the order they are deleted in, each coded as removed.
    """
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
    doomed = sorted(doomed)
    for b, c in doomed:
        parents[c].discard(b)
    return "ancestry", doomed, bytes((_REMOVED,)) * len(doomed)


def _one_way(parents, a, b):
    return a in parents[b] and b not in parents[a]


def _either_way(parents, a, b):
    return a in parents[b] or b in parents[a]


def _marginal_test(oracle, single):
    """The tested propagation's query: a against c given the empty set."""
    query, empty = oracle.query, frozenset()
    return lambda a, c: query(single[a], single[c], empty)


# -- public single-step operations -----------------------------------------


def trek_step(oracle, observed=None) -> DirectedMixedGraph:
    """Screen the complete graph down to pairs with a trek into the target.

    Uses exactly n(n-1) oracle calls for n observed nodes.
    """
    return run(Algorithm.TREK_ONLY, oracle, observed).graph


def parent_step(oracle, dg: DirectedMixedGraph) -> DirectedMixedGraph:
    """One live pass of parent-set tests over the present edges of ``dg``."""
    parents = _parent_map(dg)
    _screen(oracle, parents, _ordered_pairs(dg.nodes, "lex", 0), _singletons(dg.nodes),
            "parent", _parent_sets, {})
    return _graph(parents, dg.labels())


def ancestry_propagation_cheap(dg: DirectedMixedGraph) -> DirectedMixedGraph:
    """Query-free batch deletion of edges contradicted by ancestry patterns."""
    parents = _parent_map(dg)
    _propagate(parents, _one_way, lambda a, c: True)
    return _graph(parents, dg.labels())


def ancestry_propagation(oracle, dg: DirectedMixedGraph) -> DirectedMixedGraph:
    """Batch deletion driven by marginal-independence queries on triples."""
    parents = _parent_map(dg)
    _propagate(parents, _either_way, _marginal_test(oracle, _singletons(dg.nodes)))
    return _graph(parents, dg.labels())


# -- composed runs ----------------------------------------------------------


def run(algorithm, oracle, observed=None, *, order: str = "lex",
        seed: int = 0) -> LearnResult:
    """Run one screening algorithm against an oracle.

    ``observed`` defaults to the oracle's observed set, and is read as a
    set of ids the oracle observes. ``order`` fixes the pair iteration of
    the trek/parent/CA loops ("lex", or "random" shuffled by ``seed``, a
    nonnegative integer); the propagation stages always sweep triples
    lexicographically and apply removals as a batch, so their output does
    not depend on the order. Every argument is checked before the first
    query. Reported calls are the oracle-counter delta over the run.
    """
    algorithm = Algorithm(algorithm)
    known = oracle.observed
    obs = frozenset(integer(v, "node id", GraphError)
                    for v in (known if observed is None else observed))
    unknown = obs.difference(known)
    if unknown:
        raise GraphError(f"unknown nodes {sorted(unknown)}")
    if not obs:
        raise GraphError("observed set must be nonempty")
    seed = integer(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    obs = tuple(sorted(obs))
    pairs = _ordered_pairs(obs, order, seed)

    parents = _complete(obs)
    single = _singletons(obs)
    certs: dict = {}
    calls_before = oracle.calls

    if algorithm is Algorithm.CA:
        record = [_screen(oracle, parents, pairs, single, "ca", _ca_sets(), certs)]
    else:
        record = [_screen(oracle, parents, pairs, single, "trek", _trek_sets, certs)]
        if algorithm is Algorithm.CSAPC:
            record.append(_propagate(parents, _one_way, lambda a, c: True))
        elif algorithm is Algorithm.CSAP:
            record.append(_propagate(parents, _either_way, _marginal_test(oracle, single)))
        if algorithm is not Algorithm.TREK_ONLY:
            record.append(_screen(oracle, parents, pairs, single, "parent", _parent_sets, certs))

    return LearnResult._of_record(
        _graph(parents, [oracle.label(v) for v in obs]),
        algorithm,
        oracle.calls - calls_before,
        certs,
        tuple(record),
    )
