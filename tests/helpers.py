"""Shared test utilities: independent re-implementations used as oracles.

Everything in here is deliberately written by a different route than the
library code it checks (plain DFS instead of flow, itertools instead of
incremental bookkeeping), so agreement is meaningful.
"""
from __future__ import annotations

from collections import deque
from itertools import chain, combinations

import numpy as np
from hypothesis import strategies as st

from causalscreen import DirectedMixedGraph, ancestors
from causalscreen.experiments import CorpusConfig, random_dmg

HEAD, TAIL = 1, 0

# populated by the acceptance gate, echoed by a conftest summary hook so the
# verdict lines survive output capture
ACCEPTANCE_VERDICTS: list = []


def powerset(items):
    items = tuple(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


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


def reference_mu_separated(g: DirectedMixedGraph, sources, targets, given=()) -> bool:
    """Breadth-first search over (node, arrival-mark) tuples, without compilation.

    The search ``mu_separated`` ran before graphs were compiled to int
    states: anc(C) by a fresh BFS per query, a move table keyed by node id,
    and a set of tuples for the visited states.
    """
    a, b, c = frozenset(sources), frozenset(targets), frozenset(given)
    starts = a - c
    if not starts:
        return True
    anc = ancestors(g, c)
    moves = {v: [] for v in g.nodes}
    for t, h in g.directed:
        moves[t].append((TAIL, h, HEAD))
        moves[h].append((HEAD, t, TAIL))
    for x, y in g.bidirected:
        moves[x].append((HEAD, y, HEAD))
        moves[y].append((HEAD, x, HEAD))

    seen = set()
    queue = deque()
    for v in sorted(starts):
        for _, w, am in moves[v]:
            state = (w, am)
            if state in seen:
                continue
            if am == HEAD and w in b:
                return False
            seen.add(state)
            queue.append(state)
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
            if am == HEAD and w in b:
                return False
            seen.add(state)
            queue.append(state)
    return True


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


@st.composite
def sparse_dmg(draw, max_n=30):
    """Random directed mixed graph on arbitrary nonnegative ids."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    ids = sorted(draw(st.sets(st.integers(0, 10**9), min_size=n, max_size=n)))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    directed = draw(st.lists(pair, max_size=3 * n))
    bidirected = draw(st.lists(pair, max_size=n))
    return DirectedMixedGraph(
        ids,
        [(ids[t], ids[h]) for t, h in directed],
        [(ids[x], ids[y]) for x, y in bidirected if x != y],
    )
