"""The closure-built latent projection against one-at-a-time elimination,
its directed part against the hidden-chain search, and separation among
observed nodes under projection and canonical form."""
from hypothesis import given, settings
from hypothesis import strategies as st

from causalscreen import (
    DirectedMixedGraph,
    GraphicalOracle,
    canonical_dg,
    directed_part,
    latent_projection,
    mu_separated,
)
from helpers import (
    LoggingOracle,
    reference_latent_projection,
    reference_parent_graph,
    sparse_dmg,
)


def labelled(g: DirectedMixedGraph) -> DirectedMixedGraph:
    """The same graph with labels that do not sort like the ids."""
    return DirectedMixedGraph(g.nodes, g.directed, g.bidirected,
                              labels=[f"x{g.n - k}" for k in range(g.n)])


@st.composite
def graph_and_observed(draw, graphs=sparse_dmg(max_n=14)):
    g = labelled(draw(graphs))
    observed = draw(st.sets(st.sampled_from(g.nodes), min_size=1))
    return g, frozenset(observed)


def check_projection(g, observed):
    got = latent_projection(g, observed)
    want = reference_latent_projection(g, observed)
    assert got == want
    assert got.labels() == want.labels()
    assert latent_projection(g, g.nodes) is g
    # parent_graph's route, on mixed graphs too: each bidirected edge becomes
    # a hidden fork, which adds no directed edge among the observed nodes
    part = directed_part(got)
    chains = reference_parent_graph(canonical_dg(g)[0], observed)
    assert (part, part.labels()) == (chains, chains.labels())


@given(graph_and_observed())
@settings(max_examples=max(400, settings.default.max_examples))
def test_projection_matches_elimination(case):
    check_projection(*case)


# 65 or more nodes: the node masks of the projection's search span more
# than one 64-bit machine word
@given(graph_and_observed(sparse_dmg(min_n=65, max_n=120, min_degree=2)))
@settings(max_examples=40, deadline=None)
def test_projection_matches_elimination_on_wide_graphs(case):
    check_projection(*case)


@given(graph_and_observed(sparse_dmg(max_n=10)), st.data())
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


@given(graph_and_observed(sparse_dmg(max_n=10)), st.data())
@settings(max_examples=100)
def test_oracle_matches_search_on_the_truth(case, data):
    g, observed = case
    nodes = st.sampled_from(sorted(observed))
    queries = data.draw(st.lists(
        st.tuples(st.sets(nodes, min_size=1, max_size=3),
                  st.sets(nodes, min_size=1, max_size=3),
                  st.sets(nodes, max_size=4)),
        min_size=1, max_size=8))
    oracle = LoggingOracle(GraphicalOracle(g, observed))
    answers = [oracle.query(a, b, c) for a, b, c in queries]
    assert answers == [mu_separated(g, a, b, c) for a, b, c in queries]
    assert oracle.calls == len(queries)
    assert oracle.log == [
        (frozenset(a), frozenset(b), frozenset(c), ans)
        for (a, b, c), ans in zip(queries, answers)]
