"""The compiled separation search against the uncompiled reference search,
run fresh by ``mu_separated`` and paused and resumed by the oracle."""
from hypothesis import given, settings
from hypothesis import strategies as st

from causalscreen import DirectedMixedGraph, GraphicalOracle, mu_separated
from helpers import (
    brute_force_mu_separated,
    ca_queries,
    directed_trek_exists,
    powerset,
    random_corpus,
    reference_mu_separated,
    sparse_dmg,
)

# Sorted, gapped ids: the compiled form renumbers them to 0..N-1.
SPARSE_IDS = (3, 17, 1000, 1001, 40_000, 10**9)


@given(sparse_dmg(), st.data())
@settings(max_examples=300)
def test_compiled_search_matches_reference(g, data):
    nodes = st.sampled_from(g.nodes)
    a = data.draw(st.sets(nodes, min_size=1, max_size=4))
    b = data.draw(st.sets(nodes, min_size=1, max_size=4))
    c = data.draw(st.sets(nodes, max_size=6))
    meet = data.draw(st.sets(st.sampled_from(sorted(b)), min_size=1))
    # empty C, a random C, C meeting B, and A inside C, all on one compiled form
    for cond in (set(), c, c | meet, c | a):
        assert mu_separated(g, a, b, cond) == reference_mu_separated(g, a, b, cond)


def relabel(g: DirectedMixedGraph, ids) -> DirectedMixedGraph:
    """The same graph with node ``k`` (in sorted order) renamed ``ids[k]``."""
    ids = sorted(ids)
    name = dict(zip(g.nodes, ids))
    return DirectedMixedGraph(
        ids,
        [(name[t], name[h]) for t, h in g.directed],
        [(name[x], name[y]) for x, y in g.bidirected],
        labels=g.labels(),
    )


def sparse_corpus(count, seed):
    for g in random_corpus(count, seed, ns=(3, 4, 5, 6)):
        yield relabel(g, SPARSE_IDS[:g.n])


def test_brute_force_agreement_on_sparse_ids():
    """Criterion 1 on graphs whose ids are not 0..n-1."""
    mismatches = 0
    for g in sparse_corpus(40, 731):
        for a in g.nodes:
            rest = [v for v in g.nodes if v != a]
            for c in powerset(rest):
                for b in g.nodes:
                    if mu_separated(g, {a}, {b}, c) != brute_force_mu_separated(g, {a}, {b}, c):
                        mismatches += 1
    assert mismatches == 0


def test_trek_duality_on_sparse_ids():
    """Criterion 2 on graphs whose ids are not 0..n-1."""
    for g in sparse_corpus(80, 732):
        for a in g.nodes:
            for b in g.nodes:
                assert directed_trek_exists(g, a, b) == (not mu_separated(g, {a}, {b}, {b}))


@st.composite
def truth_and_observed(draw):
    truth = draw(sparse_dmg(max_n=8))
    observed = draw(st.sets(st.sampled_from(truth.nodes), min_size=min(2, truth.n), max_size=5))
    return truth, sorted(observed)


@given(truth_and_observed(), st.data())
@settings(max_examples=60)
def test_memoized_oracle_matches_reference(case, data):
    """Paused searches resumed in any order answer as a fresh reference search.

    The reference runs on the truth, hidden nodes included; the oracle on
    its projection. One oracle per query stream, so its searches carry over
    between the stream's queries.
    """
    truth, observed = case
    nodes = st.sampled_from(observed)
    ca = ca_queries(observed)
    csap = [({a}, {c}, ()) for a in observed for b in observed for c in observed
            if len({a, b, c}) == 3]
    mixed = data.draw(st.lists(
        st.tuples(st.sets(nodes, min_size=1, max_size=3),
                  st.sets(nodes, min_size=1, max_size=3),
                  st.sets(nodes, max_size=3)),
        max_size=12))
    streams = (
        ca,
        data.draw(st.permutations(ca)),
        ca + ca,
        csap + ca + csap,
        data.draw(st.permutations(mixed + csap + mixed + ca[:40])),
    )
    want = {}
    for queries in streams:
        oracle = GraphicalOracle(truth, observed)
        for a, b, c in queries:
            key = (frozenset(a), frozenset(b), frozenset(c))
            if key not in want:
                want[key] = reference_mu_separated(truth, a, b, c)
            assert oracle.query(a, b, c) == want[key], key
        assert oracle.calls == len(queries)
