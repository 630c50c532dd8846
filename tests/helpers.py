"""Shared test utilities: independent checkers and re-implementations.

Everything in here is deliberately written by a different route than the
library code it checks (plain DFS instead of flow, itertools instead of
incremental bookkeeping), so agreement is meaningful. Two kinds of code
live here:

* checkers of the definitions, which the package itself never runs: the
  walk-enumeration separation test ``brute_force_mu_separated`` and the
  single-walk check ``walk_is_mu_connecting`` (criterion 1), and the
  max-flow trek decider ``directed_trek_exists`` (criteria 2 and 3);
* ``reference_*`` functions, each the route a library function took before
  it was rewritten, which the rewrite must still agree with.

``LoggingOracle`` wraps an oracle and logs its queries, for the tests that
check what screening asks.

None of them reads a private name of ``causalscreen.separation``; the
brute force and the reference search build their own move tables from
``g.directed`` and ``g.bidirected``. A graph stores only node masks and
decodes those edge sets on each read, so the checkers are independent of
the package's route only as far as the decoding is right:
``test_graphs.py::TestMaskEncoding`` pins the decoded sets to the edges
the constructor was given, and ``check_masks_as_constructed`` pins the
masks a builder hands over to those the constructor would build.
"""
from __future__ import annotations

import math
import re
from collections import deque
from itertools import chain, combinations
from typing import IO, Sequence

import numpy as np
from hypothesis import strategies as st

from causalscreen import DirectedMixedGraph, GraphError
from causalscreen.connectome import CONNECTOME_HEADER
from causalscreen.experiments import CorpusConfig, random_dmg
from causalscreen.hawkes import (
    EventHistory,
    HawkesModel,
    Intervention,
    SimulationError,
    stationarity_check,
)

HEAD, TAIL = 1, 0

# The walk enumeration is exponential; it refuses larger graphs.
BRUTE_FORCE_NODE_CAP = 6

# populated by the acceptance gate, echoed by a conftest summary hook so the
# verdict lines survive output capture
ACCEPTANCE_VERDICTS: list = []


def powerset(items):
    items = tuple(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def ca_queries(nodes) -> list:
    """CA's queries on ``nodes`` in CA order, none skipped.

    Every ordered pair (a, b), lexicographically, asked against every
    subset of the nodes other than a, by size and then lexicographically:
    the queries CA would ask if no answer were ever independent.
    """
    nodes = sorted(nodes)
    out = []
    for a in nodes:
        rest = [v for v in nodes if v != a]
        for b in rest:
            out.extend(({a}, {b}, c) for c in powerset(rest))
    return out


class LoggingOracle:
    """Forwards to an oracle and logs every answered query.

    Each entry of ``log`` is ``(sources, targets, given, independent)``,
    the three sets frozen before the query is forwarded, so one-shot
    iterators work. A query the oracle rejects is not logged.
    """

    def __init__(self, oracle):
        self._oracle = oracle
        self.log: list = []

    @property
    def observed(self):
        return self._oracle.observed

    @property
    def calls(self) -> int:
        return self._oracle.calls

    def label(self, v):
        return self._oracle.label(v)

    def query(self, sources, targets, given=()):
        sources, targets, given = frozenset(sources), frozenset(targets), frozenset(given)
        answer = self._oracle.query(sources, targets, given)
        self.log.append((sources, targets, given, answer))
        return answer


def enumerate_trek_into(g: DirectedMixedGraph, src: int, dst: int) -> bool:
    """Decide a directed trek by brute enumeration of colliderless simple paths.

    A trek is a simple path, so loops never participate and no state tricks
    are needed; exponential time is fine at test sizes.
    """
    if src == dst:
        return False

    def steps(v):
        for t, h in g.directed:
            if t == h:
                continue
            if t == v:
                yield h, TAIL, HEAD
            if h == v:
                yield t, HEAD, TAIL
        for x, y in g.bidirected:
            if x == v:
                yield y, HEAD, HEAD
            if y == v:
                yield x, HEAD, HEAD

    def walk(v, arrived, seen):
        if v == dst:
            return arrived == HEAD
        for w, depart, arrive in steps(v):
            if w in seen:
                continue
            if arrived == HEAD and depart == HEAD:
                continue
            if walk(w, arrive, seen | {w}):
                return True
        return False

    # TAIL start: the first departure from src is unconstrained.
    return walk(src, TAIL, {src})


def move_table(g: DirectedMixedGraph) -> dict:
    """Per-node traversal table: (departure mark, next node, arrival mark).

    Each directed edge t -> h yields a forward move (TAIL out of t, HEAD
    into h) and a reverse move (HEAD out of h, TAIL into t); a bidirected
    edge yields head-out/head-in both ways. A loop contributes both of its
    orientations at its single node. Built afresh on every call.
    """
    moves = {v: [] for v in g.nodes}
    for t, h in g.directed:
        moves[t].append((TAIL, h, HEAD))
        moves[h].append((HEAD, t, TAIL))
    for x, y in g.bidirected:
        moves[x].append((HEAD, y, HEAD))
        moves[y].append((HEAD, x, HEAD))
    return moves


def _check_node(g: DirectedMixedGraph, v: int) -> int:
    if v not in g.node_set:
        raise GraphError(f"unknown node {v!r}")
    return v


def _node_subset(g: DirectedMixedGraph, vs) -> frozenset:
    vs = frozenset(vs)
    unknown = vs - g.node_set
    if unknown:
        raise GraphError(f"unknown nodes {sorted(unknown, key=repr)}")
    return vs


def edge_ancestors(g: DirectedMixedGraph, of) -> frozenset:
    """All nodes with a directed path into ``of``, read off the directed edge set.

    ``graphs.ancestors`` reads the node masks that the search under test
    also reads; the checkers here use this instead, so they share no
    adjacency with it.
    """
    parents: dict = {}
    for t, h in g.directed:
        parents.setdefault(h, []).append(t)
    seen = set(_node_subset(g, of))
    frontier = list(seen)
    while frontier:
        for p in parents[frontier.pop()]:
            if p not in seen:
                seen.add(p)
                frontier.append(p)
    return frozenset(seen)


def walk_is_mu_connecting(g: DirectedMixedGraph, walk, given=()) -> bool:
    """Check one explicit walk against the connecting-walk definition.

    ``walk`` is a sequence of steps ``(v, depart_mark, w, arrive_mark)``;
    consecutive steps must chain (each step's ``w`` is the next step's
    ``v``). Each step must instantiate an actual edge: (TAIL, HEAD) needs
    ``v -> w``, (HEAD, TAIL) needs ``w -> v``, (HEAD, HEAD) needs
    ``v <-> w``. The walk list is the definition made concrete.
    """
    c = frozenset(given)
    steps = list(walk)
    if not steps:
        return False
    for (v, dm, w, am) in steps:
        _check_node(g, v)
        _check_node(g, w)
        if (dm, am) == (TAIL, HEAD):
            ok = (v, w) in g.directed
        elif (dm, am) == (HEAD, TAIL):
            ok = (w, v) in g.directed
        elif (dm, am) == (HEAD, HEAD):
            ok = g.has_bidirected(v, w) if v != w else False
        else:
            ok = False
        if not ok:
            raise GraphError(f"step {(v, dm, w, am)} does not instantiate an edge")
    for prev, nxt in zip(steps, steps[1:]):
        if prev[2] != nxt[0]:
            raise GraphError("walk steps do not chain")

    source = steps[0][0]
    if source in c:
        return False
    if steps[-1][3] != HEAD:
        return False
    anc = edge_ancestors(g, c)
    for prev, nxt in zip(steps, steps[1:]):
        node = prev[2]
        arrive, depart = prev[3], nxt[1]
        if arrive == HEAD and depart == HEAD:
            if node not in anc:
                return False
        elif node in c:
            return False
    return True


def _bf_connecting_targets(g: DirectedMixedGraph, source: int,
                           given: frozenset, stop: frozenset) -> frozenset:
    """Targets reachable from ``source`` by a connecting walk, exhaustively.

    Depth-first enumeration of all walks whose (node, arrival-mark) states
    are pairwise distinct. That restriction loses nothing: a connecting
    walk that revisits a state can be spliced at the repeat (the departure
    taken at the second visit is equally legal at the first), so a minimal
    connecting walk never repeats a state, which also bounds its length by
    two edges per node. Constraints are applied per occurrence, exactly as
    the definition states them; every head arrival marks a complete
    connecting walk ending there.
    """
    moves = move_table(g)
    anc = edge_ancestors(g, given)
    found = set()

    def rec(v, mark, used):
        if found >= stop:
            return
        for dm, w, am in moves[v]:
            if mark == HEAD and dm == HEAD:
                if v not in anc:
                    continue
            elif v in given:
                continue
            state = (w, am)
            if state in used:
                continue
            if am == HEAD:
                found.add(w)
            used.add(state)
            rec(w, am, used)
            used.discard(state)

    for _, w, am in moves[source]:
        if am == HEAD:
            found.add(w)
        if found >= stop:
            break
        rec(w, am, {(w, am)})
    return frozenset(found)


def brute_force_mu_separated(g: DirectedMixedGraph, sources, targets, given=()) -> bool:
    """Walk-enumeration reference for ``mu_separated`` on small graphs.

    Refuses graphs above ``BRUTE_FORCE_NODE_CAP`` nodes.
    """
    if g.n > BRUTE_FORCE_NODE_CAP:
        raise GraphError(
            f"brute force capped at {BRUTE_FORCE_NODE_CAP} nodes, graph has {g.n}")
    a, b, c = (_node_subset(g, s) for s in (sources, targets, given))
    if not a or not b:
        raise GraphError("source and target sets must be nonempty")
    for v in sorted(a - c):
        if _bf_connecting_targets(g, v, c, stop=b) & b:
            return False
    return True


def directed_trek_exists(g: DirectedMixedGraph, src: int, dst: int) -> bool:
    """Is there a trek from ``src`` to ``dst`` whose last edge points into ``dst``?

    A trek is a path (no repeated nodes, so loops never participate) with no
    colliders. Such a path is a directed path out of a common source node,
    optionally with a single bidirected edge at the top:
    ``src <- .. <- s -> .. -> dst`` or ``src <- .. u <-> v .. -> dst``.
    It is directed into ``dst`` when the leg toward ``dst`` is nonempty or
    the bidirected edge sits at ``dst`` itself. There is no trek from a node
    to itself.

    The two legs must be node-disjoint apart from the shared top, which is
    decided exactly with a small unit-capacity flow.
    """
    src = _check_node(g, src)
    dst = _check_node(g, dst)
    if src == dst:
        return False
    anc_src = edge_ancestors(g, {src})
    anc_dst = edge_ancestors(g, {dst})
    if src in anc_dst:
        return True  # a directed path src -> dst is itself a trek
    for s in sorted((anc_src & anc_dst) - {src, dst}):
        if _two_disjoint_paths(g, [("out", s, 2)], src, dst):
            return True
    for a, b in sorted(g.bidirected):
        if not ((a in anc_src and b in anc_dst) or (b in anc_src and a in anc_dst)):
            continue
        if _two_disjoint_paths(g, [("in", a, 1), ("in", b, 1)], src, dst):
            return True
    return False


def _two_disjoint_paths(g: DirectedMixedGraph, source_arcs, src: int, dst: int) -> bool:
    """Unit-capacity max-flow check for two node-disjoint directed paths.

    Each graph node v is split into v_in -> v_out with capacity 1; each
    non-loop directed edge t -> h becomes t_out -> h_in. The sinks are
    src_out and dst_out (capacity 1 each), so the two paths must end at
    src and dst, one each, and cannot pass through either endpoint.
    ``source_arcs`` selects where the paths may start: ("out", s, 2) lets
    both start at s sharing only s; ("in", u, 1) starts one path at u and
    charges u's capacity so the other path cannot touch u.
    """
    S, T = -1, -2

    def vin(v):
        return 2 * v

    def vout(v):
        return 2 * v + 1

    cap = {}
    adj = {}

    def add(u, v, c):
        cap[(u, v)] = cap.get((u, v), 0) + c
        cap.setdefault((v, u), 0)
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)

    for v in g.nodes:
        add(vin(v), vout(v), 1)
    for t, h in g.nonloop_directed:
        add(vout(t), vin(h), 1)
    add(vout(src), T, 1)
    add(vout(dst), T, 1)
    for kind, v, c in source_arcs:
        add(S, vin(v) if kind == "in" else vout(v), c)

    flow = 0
    while flow < 2:
        prev = {S: None}
        queue = deque([S])
        while queue and T not in prev:
            u = queue.popleft()
            for v in adj.get(u, ()):
                if v not in prev and cap.get((u, v), 0) > 0:
                    prev[v] = u
                    queue.append(v)
        if T not in prev:
            return False
        v = T
        while prev[v] is not None:
            u = prev[v]
            cap[(u, v)] -= 1
            cap[(v, u)] += 1
            v = u
        flow += 1
    return True


def reference_mu_separated(g: DirectedMixedGraph, sources, targets, given=()) -> bool:
    """Breadth-first search over (node, arrival-mark) tuples, without compilation.

    The search ``mu_separated`` ran before graphs were compiled to int
    states: anc(C) by a fresh BFS per query, a move table keyed by node id,
    and a set of tuples for the visited states. It stops at the first head
    arrival at a target.
    """
    b = frozenset(targets)
    return not any(w in b for w in _head_arrivals(g, sources, given))


def reference_head_reach(g: DirectedMixedGraph, sources, given=()) -> frozenset:
    """Every node the reference search from A given C reaches by a head arrival.

    The states a search visits do not depend on its targets, so one search
    run to the end answers ``reference_mu_separated`` for every target: v is
    in the result exactly when A is not separated from {v} given C.
    """
    return frozenset(_head_arrivals(g, sources, given))


def _head_arrivals(g: DirectedMixedGraph, sources, given):
    """Yield the node of each (node, HEAD) state when the search first reaches it."""
    a, c = frozenset(sources), frozenset(given)
    starts = a - c
    if not starts:
        return
    anc = edge_ancestors(g, c)
    moves = move_table(g)

    seen = set()
    queue = deque()
    for v in sorted(starts):
        for _, w, am in moves[v]:
            state = (w, am)
            if state in seen:
                continue
            seen.add(state)
            queue.append(state)
            if am == HEAD:
                yield w
    while queue:
        v, mark = queue.popleft()
        for dm, w, am in moves[v]:
            if mark == HEAD and dm == HEAD:
                if v not in anc:
                    continue
            elif v in c:
                continue
            state = (w, am)
            if state in seen:
                continue
            seen.add(state)
            queue.append(state)
            if am == HEAD:
                yield w


def reference_latent_projection(g: DirectedMixedGraph, observed) -> DirectedMixedGraph:
    """Marginalize onto ``observed`` by eliminating latent nodes one at a time.

    The projection ``latent_projection`` computed before it was rewritten
    as a closure. Removing ``l`` composes every pair of its incident edges
    that does not meet head-to-head at ``l``:

    * ``x -> l`` with ``l -> y``   gives ``x -> y``
    * ``l -> x`` with ``l -> y``   gives ``x <-> y``
    * ``l -> x`` with ``l <-> y``  gives ``x <-> y``

    Bidirected self-edges produced by composition are discarded.
    """
    obs = frozenset(observed)
    directed = set(g.directed)
    bidirected = set(g.bidirected)

    for l in sorted(set(g.nodes) - obs):
        ins = sorted({t for (t, h) in directed if h == l and t != l})
        outs = sorted({h for (t, h) in directed if t == l and h != l})
        sibs = sorted({a if b == l else b for (a, b) in bidirected if l in (a, b)})

        for x in ins:
            for y in outs:
                directed.add((x, y))
        for i, x in enumerate(outs):
            for y in outs[i + 1:]:
                bidirected.add((min(x, y), max(x, y)))
        for x in outs:
            for y in sibs:
                if x != y:
                    bidirected.add((min(x, y), max(x, y)))

        directed = {(t, h) for (t, h) in directed if t != l and h != l}
        bidirected = {(a, b) for (a, b) in bidirected if l not in (a, b)}

    labels = [g.label(v) for v in sorted(obs)]
    return DirectedMixedGraph(obs, directed, bidirected, labels=labels)


def reference_parent_graph(g: DirectedMixedGraph, observed) -> DirectedMixedGraph:
    """Restrict a directed graph to ``observed``, bridging hidden chains.

    The route ``parent_graph`` took before it became the directed part of
    the latent projection: from each observed node, a breadth-first search
    through unobserved children only, over the decoded adjacency sets. The
    result has an edge ``a -> b`` (both observed) exactly when the input
    has a directed path from ``a`` to ``b`` whose intermediate nodes are
    all unobserved. Requires a pure directed graph (no bidirected edges).
    """
    if g.bidirected:
        raise GraphError("parent_graph is defined for directed graphs only")
    obs = _node_subset(g, observed)
    edges = set()
    for a in sorted(obs):
        # expand through unobserved nodes only
        seen_hidden = set()
        frontier = deque()
        for c in g.children(a):
            if c in obs:
                edges.add((a, c))
            elif c not in seen_hidden:
                seen_hidden.add(c)
                frontier.append(c)
        while frontier:
            v = frontier.popleft()
            for c in g.children(v):
                if c in obs:
                    edges.add((a, c))
                elif c not in seen_hidden:
                    seen_hidden.add(c)
                    frontier.append(c)
    return DirectedMixedGraph(obs, edges, (), labels={v: g.label(v) for v in obs})


def check_masks_as_constructed(g: DirectedMixedGraph) -> None:
    """``g``'s masks are those the public constructor builds from its edges.

    Each node's child mask is the transpose of the parent masks, read bit
    by bit, and the three mask tuples, ids and labels equal those of the
    graph the constructor builds from ``g``'s decoded edges and labels.
    """
    n = g.n
    for i in range(n):
        for j in range(n):
            assert (g._ch[i] >> j & 1) == (g._pa[j] >> i & 1), (i, j)
    ref = DirectedMixedGraph(g.nodes, g.directed, g.bidirected, labels=g.labels())
    assert (g._pa, g._ch, g._sib) == (ref._pa, ref._ch, ref._sib)
    assert g.nodes == ref.nodes and g.labels() == ref.labels()
    assert all(type(v) is int for v in g.nodes)
    assert g._bit == ref._bit and g.node_set == ref.node_set


def descendant_closure(g: DirectedMixedGraph, v: int) -> set[int]:
    """Forward reachability over directed edges, reflexive."""
    seen = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for t, h in g.directed:
            if t == u and h not in seen:
                seen.add(h)
                stack.append(h)
    return seen


def random_corpus(count, seed, ns=(3, 4, 5), p_dirs=(0.2, 0.5, 0.8), p_bis=(0.2, 0.5, 0.8)):
    """Deterministic stream of random graphs cycling a density grid."""
    combos = [(n, pd, pb) for n in ns for pd in p_dirs for pb in p_bis]
    for k in range(count):
        n, pd, pb = combos[k % len(combos)]
        yield random_dmg(CorpusConfig(n, pd, pb, 1, seed), k)


def random_observed(n: int, seed: int, k: int) -> tuple[int, ...]:
    """Random observed subset of size >= 2, keyed off the corpus seed."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, k, 2])))
    m = int(rng.integers(2, n + 1))
    return tuple(sorted(rng.choice(n, size=m, replace=False).tolist()))


@st.composite
def graph_strategy(draw, max_n=6, with_bidirected=True):
    n = draw(st.integers(min_value=1, max_value=max_n))
    dpairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    directed = draw(st.sets(st.sampled_from(dpairs))) if dpairs else set()
    bidirected = set()
    if with_bidirected and n > 1:
        bpairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        bidirected = draw(st.sets(st.sampled_from(bpairs)))
    return DirectedMixedGraph(n, directed, bidirected)


def _pair(code: int) -> tuple:
    """The code-th pair of naturals, by increasing maximum.

    The first m * m codes are the pairs below m, for every m.
    """
    m = math.isqrt(code)
    r = code - m * m
    return (r, m) if r <= m else (m, r - m - 1)


@st.composite
def sparse_dmg(draw, max_n=30, min_n=1, min_degree=0):
    """Random directed mixed graph on arbitrary nonnegative ids.

    With ``min_degree`` d, at least d * n directed and d * n // 2
    bidirected edges are drawn (before duplicates and loops drop out), so
    wide graphs are not left with a handful of edges.

    Each edge is one integer draw, a code for its pair, in one ``st.lists``
    per edge list, so a list costs one draw per edge, not two, and keeps
    the bounds it always had (the upper one capped at n * n codes). The
    codes in a list are distinct, so a list Hypothesis draws as one repeated
    value does not collapse into one edge. A small code names the same pair
    whatever n is, so a failure can shrink n without moving its edges.
    Failures shrink n, the ids, each list (dropping edges) and each code.
    """
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    ids = sorted(draw(st.sets(st.integers(0, 10**9), min_size=n, max_size=n)))

    def edges(min_size, max_size):
        codes = st.integers(0, n * n - 1)
        drawn = draw(st.lists(codes, min_size=min_size, max_size=min(max_size, n * n), unique=True))
        return [(ids[t], ids[h]) for t, h in map(_pair, drawn)]

    directed = edges(min_degree * n, 3 * n)
    bidirected = edges(min_degree * n // 2, n)
    return DirectedMixedGraph(ids, directed, [(x, y) for x, y in bidirected if x != y])


def reference_thinning(model: HawkesModel, interventions: Sequence[Intervention],
                        seed: int, force: bool, max_events: int) -> EventHistory:
    """Dense Ogata thinning, as the simulator did it before its state was packed.

    Every candidate decays and multiplies the full n x n excitation state;
    ``hawkes._thinning`` must produce the same bytes and the same errors.
    """
    n = model.n
    T = model.horizon
    A, B = model.matrices()
    mu = np.array(model.mu, dtype=float)

    active = np.ones(n, dtype=bool)
    forced: list = []
    for iv in interventions:
        if not 0 <= iv.node < n:
            raise ValueError(f"intervention targets unknown node {iv.node}")
        if not active[iv.node]:
            raise ValueError(f"node {iv.node} intervened twice")
        if iv.times and iv.times[-1] > T:
            raise ValueError("intervention times must lie within the horizon")
        active[iv.node] = False
        forced.extend((t, iv.node) for t in iv.times)
    forced.sort()

    if not force:
        stable, rho = stationarity_check(model)
        if not stable:
            raise SimulationError(
                f"model is not stationary (spectral radius {rho:.6g}); "
                "pass force=True to simulate anyway"
            )

    rng = np.random.Generator(np.random.PCG64(seed))
    events: list = [[] for _ in range(n)]
    # S[b, a] carries sum(exp(-B[b,a] * (t - s))) over all events s <= t of
    # node a; decayed lazily when t advances.
    S = np.zeros((n, n))
    t = 0.0
    fi = 0
    total = 0

    def record(node: int, at: float) -> None:
        nonlocal total
        S[:, node] += 1.0
        events[node].append(at)
        total += 1
        if total > max_events:
            raise SimulationError(f"event cap {max_events} exceeded; model exploding?")

    stalled = False
    while True:
        lam_right = np.where(active, mu + (A * S).sum(axis=1), 0.0)
        lbar = float(lam_right.sum())
        if not lbar < math.inf:
            raise SimulationError(f"total intensity overflows at t = {t!r}; model exploding?")
        # a sampled event at its node's own last event time ends the run here
        if stalled:
            raise SimulationError(f"event times stop advancing at t = {t!r}; model exploding?")

        # Draw order per candidate: candidate-time draw (none while the
        # envelope is zero, which leaves only forced events), then (if the
        # candidate is within the horizon and not preempted by a forced
        # event) acceptance draw, then (if accepted) node-selection draw.
        t_cand = t - math.log1p(-rng.random()) / lbar if lbar > 0.0 else math.inf
        if fi < len(forced) and forced[fi][0] <= t_cand:
            # Forced event preempts the candidate; its time draw is discarded.
            tf, nf = forced[fi]
            S *= np.exp(-B * (tf - t))
            t = tf
            fi += 1
            record(nf, tf)
            continue
        if t_cand > T:
            break

        S *= np.exp(-B * (t_cand - t))
        t = t_cand
        lam = np.where(active, mu + (A * S).sum(axis=1), 0.0)
        ltot = float(lam.sum())
        u_accept = rng.random()
        if u_accept * lbar <= ltot:
            u_node = rng.random()
            cum = np.cumsum(lam)
            node = int(np.searchsorted(cum, u_node * ltot, side="right"))
            node = min(node, n - 1)
            stalled = events[node][-1:] == [t_cand]
            record(node, t_cand)

    return EventHistory(tuple(tuple(row) for row in events), T)


def reference_decayed_sums(query_ts: Sequence[float], src_ts: Sequence[float],
                           b: float) -> tuple:
    """For each query time t: (#events s < t, sum exp(-b (t - s)) over them).

    Single forward sweep; both time sequences must be ascending. The loop
    ``hawkes._decayed_sums`` ran before it was vectorized.
    """
    counts = np.empty(len(query_ts))
    sums = np.empty(len(query_ts))
    g = 0.0
    cur = 0.0
    j = 0
    for i, t in enumerate(query_ts):
        while j < len(src_ts) and src_ts[j] < t:
            s = src_ts[j]
            g = g * math.exp(-b * (s - cur)) + 1.0
            cur = s
            j += 1
        counts[i] = j
        sums[i] = g * math.exp(-b * (t - cur))
    return counts, sums


def reference_compensator(model: HawkesModel, history: EventHistory, node: int,
                          times: Sequence[float]) -> np.ndarray:
    """``hawkes.compensator``'s sum over the sources through the forward sweep."""
    ts = list(times)
    out = np.array(ts, dtype=float) * model.mu[node]
    for a, row in enumerate(history.times):
        k = model.kernels[node][a]
        if k.a == 0.0 or not row:
            continue
        counts, sums = reference_decayed_sums(ts, row, k.b)
        out += (k.a / k.b) * (counts - sums)
    return out


def reference_merged(history: EventHistory) -> list:
    """``EventHistory.merged`` as it was before the argsort: one tuple per event."""
    out = [(t, v) for v, row in enumerate(history.times) for t in row]
    out.sort()
    return out


def reference_event_csv(history: EventHistory, fh: IO[str]) -> None:
    """``EventHistory.to_csv`` as it was before the argsort: one line per write."""
    fh.write("node,time\n")
    for t, v in reference_merged(history):
        fh.write(f"{v},{t!r}\n")


def _reference_parse_row(lineno: int, line: str) -> tuple:
    parts = [p.strip() for p in line.split(",")]
    if len(parts) != 4:
        raise GraphError(f"line {lineno}: expected 4 fields, got {len(parts)}: {line!r}")
    pre, post, count_s, kind = parts
    if not pre or not post:
        raise GraphError(f"line {lineno}: empty node name: {line!r}")
    # an optional minus and ASCII digits; int() alone also reads +9, 1_0 and
    # other scripts' digits, and refuses more digits than its limit
    try:
        if not re.fullmatch("-?[0-9]+", count_s):
            raise ValueError(count_s)
        count = int(count_s)
    except ValueError:
        raise GraphError(f"line {lineno}: non-numeric count {count_s!r}") from None
    if count < 1:
        raise GraphError(f"line {lineno}: count must be >= 1, got {count}")
    if kind not in ("chem", "gap"):
        raise GraphError(f"line {lineno}: type must be chem or gap, got {kind!r}")
    return pre, post, count, kind


def reference_ingest_connectome(fh: IO[str], threshold: int = 4) -> DirectedMixedGraph:
    """Synapse CSV ingest as it was before valid rows got an inline path.

    Every row is stripped and parsed field by field; ``ingest_connectome``
    must return an equal graph with equal labels, or raise the same error.
    """
    header = fh.readline().strip()
    if header != CONNECTOME_HEADER:
        raise GraphError(f"expected header {CONNECTOME_HEADER!r}, got {header!r}")
    chem: dict = {}
    gap: set = set()
    names: set = set()
    for lineno, raw in enumerate(fh, start=2):
        line = raw.strip()
        if not line:
            continue
        pre, post, count, kind = _reference_parse_row(lineno, line)
        names.add(pre)
        names.add(post)
        if kind == "chem":
            key = (pre, post)
            chem[key] = max(chem.get(key, 0), count)
        else:
            if pre == post:
                continue
            gap.add((min(pre, post), max(pre, post)))
    if not names:
        raise GraphError("connectome file has no records")
    labels = sorted(names)
    index = {name: i for i, name in enumerate(labels)}
    directed = [(index[a], index[b]) for (a, b), c in chem.items() if c > threshold]
    bidirected = [(index[a], index[b]) for a, b in sorted(gap)]
    return DirectedMixedGraph(len(labels), directed, bidirected, labels=labels)


def reference_degree_weights(g: DirectedMixedGraph, exponent: float = 1.0) -> dict:
    """Degree weights by walking every non-loop directed and bidirected edge.

    The count ``connectome.degree_weights`` made before it read the
    graph's adjacency; for a finite exponent whose weights stay finite both
    return the same dict.
    """
    deg = {v: 0 for v in g.nodes}
    for a, b in g.nonloop_directed:
        deg[a] += 1
        deg[b] += 1
    for a, b in g.bidirected:
        deg[a] += 1
        deg[b] += 1
    return {v: (1.0 + d) ** exponent for v, d in deg.items()}


def reference_subsample(g: DirectedMixedGraph, m: int, seed: int, *,
                        weight_exponent: float = 1.0) -> tuple:
    """Weighted draws as a running total over the remaining nodes, node by node.

    ``connectome.subsample`` must return the same tuple.
    """
    if not 1 <= m <= g.n:
        raise GraphError(f"sample size {m} not in [1, {g.n}]")
    weights = reference_degree_weights(g, weight_exponent)
    rng = np.random.Generator(np.random.PCG64(seed))
    remaining = list(g.nodes)
    chosen = []
    for _ in range(m):
        total = sum(weights[v] for v in remaining)
        x = rng.random() * total
        acc = 0.0
        pick = len(remaining) - 1
        for idx, v in enumerate(remaining):
            acc += weights[v]
            if x < acc:
                pick = idx
                break
        chosen.append(remaining.pop(pick))
    return tuple(sorted(chosen))


def reference_average_ranks(xs: Sequence[float]) -> np.ndarray:
    """Average ranks by walking each run of ties in a stable sort.

    The loop ``experiments._average_ranks`` ran before it walked the
    sorted values with array operations; both must return the same bytes,
    NaNs included.
    """
    arr = np.asarray(xs, dtype=float)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(len(arr))
    i = 0
    while i < len(arr):
        j = i
        while j + 1 < len(arr) and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def count_projections(monkeypatch) -> list:
    """Record every ``latent_projection`` call the pipeline modules make.

    Patches the name in each module that imports it and returns the list
    to which each call appends its observed set.
    """
    from causalscreen import connectome, experiments, graphs, separation

    calls = []

    def counted(g, observed):
        observed = frozenset(observed)
        calls.append(observed)
        return graphs.latent_projection(g, observed)

    for module in (connectome, experiments, separation):
        monkeypatch.setattr(module, "latent_projection", counted)
    return calls
