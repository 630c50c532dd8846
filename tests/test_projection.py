"""The closure-built latent projection against one-at-a-time elimination,
and separation among observed nodes under projection and canonical form."""
from hypothesis import given, settings
from hypothesis import strategies as st

from causalscreen import (
    DirectedMixedGraph,
    GraphicalOracle,
    canonical_dg,
    latent_projection,
    mu_separated,
)
from helpers import reference_latent_projection, sparse_dmg


def labelled(g: DirectedMixedGraph) -> DirectedMixedGraph:
    """The same graph with labels that do not sort like the ids."""
    return DirectedMixedGraph(g.nodes, g.directed, g.bidirected,
                              labels=[f"x{g.n - k}" for k in range(g.n)])


@st.composite
def graph_and_observed(draw, max_n=14):
    g = labelled(draw(sparse_dmg(max_n=max_n)))
    observed = draw(st.sets(st.sampled_from(g.nodes), min_size=1))
    return g, frozenset(observed)


@given(graph_and_observed())
@settings(max_examples=400)
def test_projection_matches_elimination(case):
    g, observed = case
    got = latent_projection(g, observed)
    want = reference_latent_projection(g, observed)
    assert got == want
    assert got.labels() == want.labels()
    assert latent_projection(g, g.nodes) is g


def test_projection_is_cached_per_observed_set(demo_graph):
    proj = latent_projection(demo_graph, (0, 3, 4))
    assert latent_projection(demo_graph, [4, 3, 0]) is proj
    assert latent_projection(demo_graph, (0, 3)) is not proj


@given(graph_and_observed(max_n=10), st.data())
@settings(max_examples=200)
def test_projection_and_canonical_form_preserve_separation(case, data):
    g, observed = case
    proj = latent_projection(g, observed)
    canon = canonical_dg(g)[0]
    nodes = st.sampled_from(sorted(observed))
    for _ in range(5):
        a = data.draw(st.sets(nodes, min_size=1, max_size=3))
        b = data.draw(st.sets(nodes, min_size=1, max_size=3))
        c = data.draw(st.sets(nodes, max_size=4))
        want = mu_separated(g, a, b, c)
        assert mu_separated(proj, a, b, c) == want
        assert mu_separated(canon, a, b, c) == want


@given(graph_and_observed(max_n=10), st.data())
@settings(max_examples=100)
def test_oracle_matches_search_on_the_truth(case, data):
    g, observed = case
    nodes = st.sampled_from(sorted(observed))
    queries = data.draw(st.lists(
        st.tuples(st.sets(nodes, min_size=1, max_size=3),
                  st.sets(nodes, min_size=1, max_size=3),
                  st.sets(nodes, max_size=4)),
        min_size=1, max_size=8))
    oracle = GraphicalOracle(g, observed, keep_log=True)
    answers = [oracle.query(a, b, c) for a, b, c in queries]
    assert answers == [mu_separated(g, a, b, c) for a, b, c in queries]
    assert oracle.calls == len(queries)
    assert [(q.sources, q.targets, q.given, q.independent) for q in oracle.log] == [
        (frozenset(a), frozenset(b), frozenset(c), ans)
        for (a, b, c), ans in zip(queries, answers)]
