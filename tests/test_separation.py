"""Walk-based separation: the search, the walk checker, the oracle."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from causalscreen import (
    DirectedMixedGraph,
    GraphError,
    GraphicalOracle,
    latent_projection,
    mu_separated,
)
from causalscreen import separation
from causalscreen.experiments import CorpusConfig, random_dmg
from helpers import (
    HEAD,
    TAIL,
    LoggingOracle,
    brute_force_mu_separated,
    ca_queries,
    directed_trek_exists,
    graph_strategy,
    powerset,
    random_corpus,
    walk_is_mu_connecting,
)


class TestMuSeparated:
    def test_chain_blocking(self, chain3):
        assert mu_separated(chain3, {0}, {2}, {1})
        assert not mu_separated(chain3, {0}, {2})
        # conditioning on the target's own past is legal and does not block
        assert not mu_separated(chain3, {0}, {2}, {2})

    def test_asymmetry_on_single_edge(self):
        g = DirectedMixedGraph(2, [(0, 1)])
        assert not mu_separated(g, {0}, {1}, {1})
        assert mu_separated(g, {1}, {0}, {0})

    def test_source_inside_conditioning_set_is_vacuous(self):
        g = DirectedMixedGraph(2, [(0, 1)])
        assert mu_separated(g, {0}, {1}, {0})
        assert mu_separated(g, {0, 1}, {0, 1}, {0, 1})

    def test_self_dependence_through_loop(self):
        g = DirectedMixedGraph(1)
        assert not mu_separated(g, {0}, {0})
        assert mu_separated(g, {0}, {0}, {0})

    def test_collider_opens_under_conditioning(self):
        g = DirectedMixedGraph(3, [(0, 2), (1, 2)])
        assert mu_separated(g, {0}, {1})
        # the connecting walk is 0 -> 2 <- 1 -> 1, finishing over the loop
        assert not mu_separated(g, {0}, {1}, {2})

    def test_collider_needs_ancestor_of_c_not_membership(self):
        # 0 -> 2 <- 1 with 2 -> 3: conditioning on the descendant 3 opens 2
        g = DirectedMixedGraph(4, [(0, 2), (1, 2), (2, 3)])
        assert not mu_separated(g, {0}, {1}, {3})

    def test_validation(self, chain3):
        with pytest.raises(GraphError, match="must be nonempty"):
            mu_separated(chain3, (), {1})
        with pytest.raises(GraphError, match="must be nonempty"):
            mu_separated(chain3, {0}, ())
        # an id is valid only as a node of the graph: nothing is coerced
        for args in (({0}, {9}), ({9}, {1}), ({0}, {2}, {9}), ({0}, {1.5}),
                     ({"1"}, {2}), ({0}, {2}, {"1"}), ({0}, {2}, {1.5})):
            with pytest.raises(GraphError, match="unknown nodes"):
                mu_separated(chain3, *args)
        # numpy ints and one-shot iterators answer as the equal sets do
        for a, b, c in (({0}, {2}, {1}), ({0}, {2}, ()), ({2}, {0}, {1})):
            want = mu_separated(chain3, a, b, c)
            assert mu_separated(chain3, map(np.int64, a), map(np.int64, b),
                                map(np.int64, c)) == want
            assert mu_separated(chain3, iter(a), iter(b), iter(c)) == want

    @given(graph_strategy(max_n=5), st.data())
    def test_sources_subset_of_given_always_separated(self, g, data):
        a = data.draw(st.sets(st.sampled_from(g.nodes), min_size=1))
        b = data.draw(st.sets(st.sampled_from(g.nodes), min_size=1))
        extra = data.draw(st.sets(st.sampled_from(g.nodes)))
        assert mu_separated(g, a, b, a | extra)


class TestWalkChecker:
    def test_collider_walk(self):
        g = DirectedMixedGraph(3, [(0, 2), (1, 2)])
        walk = [(0, TAIL, 2, HEAD), (2, HEAD, 1, TAIL), (1, TAIL, 1, HEAD)]
        assert walk_is_mu_connecting(g, walk, {2})
        assert not walk_is_mu_connecting(g, walk)

    def test_demo_fork_walk(self, demo_graph):
        walk = [(0, TAIL, 1, HEAD), (1, HEAD, 5, TAIL), (5, TAIL, 4, HEAD)]
        assert walk_is_mu_connecting(demo_graph, walk, {4})
        # collider 1 is its own ancestor, so adding it to C keeps the walk open
        assert walk_is_mu_connecting(demo_graph, walk, {4, 1})
        # the fork 5 is a noncollider, so conditioning on it blocks
        assert not walk_is_mu_connecting(demo_graph, walk, {4, 5})

    def test_tail_finish_is_not_connecting(self):
        g = DirectedMixedGraph(2, [(1, 0)])
        # same edge, both traversals: only the head-first arrival connects
        assert walk_is_mu_connecting(g, [(1, TAIL, 0, HEAD)], ())
        assert not walk_is_mu_connecting(g, [(0, HEAD, 1, TAIL)], ())

    def test_source_in_c_fails(self):
        g = DirectedMixedGraph(2, [(0, 1)])
        assert not walk_is_mu_connecting(g, [(0, TAIL, 1, HEAD)], {0})

    def test_empty_walk(self, chain3):
        assert not walk_is_mu_connecting(chain3, [])

    def test_step_must_instantiate_an_edge(self, chain3):
        with pytest.raises(GraphError):
            walk_is_mu_connecting(chain3, [(2, TAIL, 0, HEAD)])
        with pytest.raises(GraphError):
            walk_is_mu_connecting(chain3, [(0, HEAD, 1, HEAD)])

    def test_steps_must_chain(self, chain3):
        bad = [(0, TAIL, 1, HEAD), (2, TAIL, 2, HEAD)]
        with pytest.raises(GraphError):
            walk_is_mu_connecting(chain3, bad)


class TestBruteForceAgreement:
    def test_cap(self):
        with pytest.raises(GraphError):
            brute_force_mu_separated(DirectedMixedGraph(7), {0}, {1})

    def test_agreement_on_random_graphs(self):
        """Search and walk enumeration agree on every singleton query."""
        mismatches = 0
        for g in random_corpus(60, 555, ns=(3, 4)):
            for a in g.nodes:
                rest = [v for v in g.nodes if v != a]
                for c in powerset(rest):
                    for b in g.nodes:
                        if mu_separated(g, {a}, {b}, c) != brute_force_mu_separated(
                            g, {a}, {b}, c
                        ):
                            mismatches += 1
        assert mismatches == 0

    def test_trek_duality(self):
        """A directed trek into b is a connecting walk given {b}, and back."""
        for g in random_corpus(80, 616, ns=(3, 4, 5)):
            for a in g.nodes:
                for b in g.nodes:
                    assert directed_trek_exists(g, a, b) == (
                        not mu_separated(g, {a}, {b}, {b})
                    )


class TestOracle:
    def test_counts_every_call_including_repeats(self, chain3):
        oracle = GraphicalOracle(chain3)
        first = oracle.query({0}, {2}, {1})
        second = oracle.query({0}, {2}, {1})
        assert first is True and second is True
        assert oracle.calls == 2

    def test_invalid_query_does_not_count(self, chain3):
        # a non-id fails the same way whether or not a logging wrapper freezes it first
        for oracle in (GraphicalOracle(chain3, observed=(0, 1)),
                       LoggingOracle(GraphicalOracle(chain3, observed=(0, 1)))):
            for args in (({0}, {2}, ()), ({0}, {"1"}, ()), ({0}, {1}, {1.5})):
                with pytest.raises(GraphError, match="unknown nodes"):
                    oracle.query(*args)
            assert oracle.calls == 0

    def test_empty_query_does_not_count(self, chain3):
        oracle = GraphicalOracle(chain3)
        for sources, targets in ((set(), {2}), ({0}, set()), (set(), set())):
            with pytest.raises(GraphError):
                oracle.query(sources, targets, {1})
        assert oracle.calls == 0

    def test_observed_validation(self, chain3):
        for observed in ((0, 9), (0, 1.5), (0, "1")):
            with pytest.raises(GraphError, match="unknown nodes"):
                GraphicalOracle(chain3, observed=observed)

    def test_log_records_queries(self, chain3):
        oracle = LoggingOracle(GraphicalOracle(chain3))
        assert oracle.query({0}, {2}, {1}) is True
        assert oracle.query({0}, {1}) is False
        assert oracle.log == [(frozenset({0}), frozenset({2}), frozenset({1}), True),
                              (frozenset({0}), frozenset({1}), frozenset(), False)]

    def test_log_freezes_one_shot_iterators(self, chain3):
        oracle = LoggingOracle(GraphicalOracle(chain3))
        assert oracle.query(iter([0]), iter([2]), iter([1])) is True
        assert oracle.calls == 1
        assert oracle.log == [(frozenset({0}), frozenset({2}), frozenset({1}), True)]

    def test_unlogged_query_reads_one_shot_iterators_once(self, chain3):
        # the first query builds the search for ({0}, {1}), the others reuse it
        oracle = GraphicalOracle(chain3)
        assert oracle.query(iter([0]), iter([2]), iter([1])) is True
        assert oracle.query(iter([0]), iter([1]), iter([1])) is False
        assert oracle.query(iter([0]), iter([2]), iter([1])) is True
        assert oracle.query({0}, {1, 2}, (1,)) is False
        assert oracle.calls == 4

    def test_repeat_sources_and_given_still_validate_targets(self, chain3):
        bad_targets = (({2}, "unknown nodes [2]"), ({"1"}, "unknown nodes ['1']"),
                       ({1.5}, "unknown nodes [1.5]"),
                       (set(), "source and target sets must be nonempty"))
        for targets, message in bad_targets:
            fresh = GraphicalOracle(chain3, observed=(0, 1))
            with pytest.raises(GraphError) as first:
                fresh.query({0}, targets, ())
            oracle = GraphicalOracle(chain3, observed=(0, 1))
            assert oracle.query({0}, {1}, ()) is False
            with pytest.raises(GraphError) as repeat:
                oracle.query({0}, targets, ())
            assert str(repeat.value) == str(first.value) == message
            assert fresh.calls == 0 and oracle.calls == 1
            assert oracle.query({0}, {0}, ()) is False
            assert oracle.calls == 2

    def test_search_bound_drops_searches_not_answers(self, monkeypatch):
        monkeypatch.setattr(separation, "_MAX_SEARCHES", 3)
        truth = random_dmg(CorpusConfig(5, 0.4, 0.3, 1, 8), 0)
        queries = ca_queries(truth.nodes)
        oracle = GraphicalOracle(truth)
        for a, b, c in queries:
            assert oracle.query(a, b, c) == mu_separated(truth, a, b, c)
            assert len(oracle._searches) <= 3
        assert oracle.calls == len(queries)

    def test_oracles_on_one_projection_own_their_closure_tables(self, demo_graph,
                                                               monkeypatch):
        """Two oracles share the projection, which never changes; the
        tables a closure reads belong to the oracle that built them."""
        monkeypatch.setattr(separation, "_PROMOTE", 1)
        proj = latent_projection(demo_graph, (0, 3, 4))
        first, second = GraphicalOracle(proj), GraphicalOracle(proj)
        assert first._graph is second._graph is proj
        assert first.query({0}, {4}, {3}) == mu_separated(proj, {0}, {4}, {3})
        assert first._tables is not None and second._tables is None
        assert second.query({0}, {4}, {3}) == first.query({0}, {4}, {3})
        assert second._tables == first._tables and second._tables is not first._tables

    def test_label_passthrough(self, demo_graph):
        oracle = GraphicalOracle(demo_graph, observed=(0, 3, 4))
        assert oracle.label(3) == "d"
        with pytest.raises(GraphError):
            oracle.label(1)
