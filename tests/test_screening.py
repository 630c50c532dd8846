"""Screening stages and their compositions against the graphical oracle."""
import pytest

from causalscreen import (
    Algorithm,
    DirectedMixedGraph,
    GraphError,
    GraphicalOracle,
    ancestry_propagation,
    ancestry_propagation_cheap,
    canonical_dg,
    excess_edges,
    parent_graph,
    parent_step,
    run,
    trek_step,
)
from causalscreen.separation import HEAD, TAIL
from conftest import DEMO_OBS
from helpers import (
    brute_force_mu_separated,
    powerset,
    random_corpus,
    random_observed,
    walk_is_mu_connecting,
)


def nonloop(g):
    return set(g.nonloop_directed)


def oracle_for(demo_graph):
    return GraphicalOracle(demo_graph, observed=DEMO_OBS)


class TestTrekStep:
    def test_demo_output_and_cost(self, demo_graph):
        oracle = oracle_for(demo_graph)
        out = trek_step(oracle)
        # the hidden fork 5 keeps both directions between 3 and 4 alive
        assert nonloop(out) == {(0, 3), (0, 4), (3, 4), (4, 3)}
        assert oracle.calls == 6

    def test_single_edge(self):
        oracle = GraphicalOracle(DirectedMixedGraph(2, [(0, 1)]))
        out = trek_step(oracle)
        assert nonloop(out) == {(0, 1)}
        assert oracle.calls == 2

    def test_empty_truth(self):
        oracle = GraphicalOracle(DirectedMixedGraph(3))
        out = trek_step(oracle)
        assert nonloop(out) == set()
        assert oracle.calls == 6

    def test_queries_condition_on_the_target(self, demo_graph):
        oracle = GraphicalOracle(demo_graph, observed=DEMO_OBS, keep_log=True)
        trek_step(oracle)
        for q in oracle.log:
            assert q.given == q.targets
            assert len(q.sources) == len(q.targets) == 1

    def test_exact_cost_everywhere(self):
        for k, g in enumerate(random_corpus(40, 808)):
            obs = random_observed(g.n, 808, k)
            oracle = GraphicalOracle(g, obs)
            trek_step(oracle)
            m = len(obs)
            assert oracle.calls == m * (m - 1)


class TestParentStep:
    def chain_and_trek(self):
        truth = DirectedMixedGraph(3, [(0, 1), (1, 2)])
        d = trek_step(GraphicalOracle(truth))
        assert nonloop(d) == {(0, 1), (1, 2), (0, 2)}
        return truth, d

    def test_removes_transitive_edge(self):
        truth, d = self.chain_and_trek()
        oracle = GraphicalOracle(truth)
        out = parent_step(oracle, d)
        assert nonloop(out) == {(0, 1), (1, 2)}
        assert oracle.calls == 3

    def test_parent_sets_are_read_live(self):
        """After (0, 2) falls, the (1, 2) query conditions on {2} alone."""
        truth, d = self.chain_and_trek()
        oracle = GraphicalOracle(truth, keep_log=True)
        parent_step(oracle, d)
        last = oracle.log[-1]
        assert last.sources == frozenset({1})
        assert last.given == frozenset({2})

    def test_rejects_bidirected_input(self, chain3):
        with pytest.raises(GraphError):
            parent_step(GraphicalOracle(chain3), DirectedMixedGraph(3, bidirected=[(0, 1)]))


class TestAncestryPropagation:
    def test_cheap_batch_on_a_chain(self):
        # both (1,2) and (2,3) match triples in the input, so both fall in
        # one sweep; sequential re-evaluation would have spared (2,3)
        d = DirectedMixedGraph(4, [(0, 1), (1, 2), (2, 3)])
        out = ancestry_propagation_cheap(d)
        assert nonloop(out) == {(0, 1)}

    def test_cheap_needs_antisymmetric_front_edge(self):
        # 0 <-> 1 adjacency (both directions present) disables the triple
        d = DirectedMixedGraph(3, [(0, 1), (1, 0), (1, 2)])
        assert nonloop(ancestry_propagation_cheap(d)) == nonloop(d)

    def test_cheap_spares_covered_triples(self):
        d = DirectedMixedGraph(3, [(0, 1), (1, 2), (0, 2)])
        assert nonloop(ancestry_propagation_cheap(d)) == nonloop(d)

    def test_cheap_issues_no_queries(self, demo_graph):
        oracle = oracle_for(demo_graph)
        d = trek_step(oracle)
        before = oracle.calls
        ancestry_propagation_cheap(d)
        assert oracle.calls == before

    def test_tested_removal(self):
        truth = DirectedMixedGraph(3, [(0, 1)])
        d = DirectedMixedGraph(3, [(0, 1), (1, 2)])
        oracle = GraphicalOracle(truth)
        out = ancestry_propagation(oracle, d)
        assert nonloop(out) == {(0, 1)}
        assert oracle.calls == 1

    def test_tested_counts_repeated_queries(self):
        # the diamond offers (0,1,3) and (0,2,3): same marginal query twice
        diamond = DirectedMixedGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        oracle = GraphicalOracle(diamond)
        out = ancestry_propagation(oracle, diamond)
        assert nonloop(out) == nonloop(diamond)
        assert oracle.calls == 4

    def test_loops_make_marginal_queries_safe_on_chains(self):
        """The sink-to-middle query stays dependent through the self-loop,
        so propagation never doubts the true edge."""
        truth = DirectedMixedGraph(3, [(0, 1), (1, 2)])
        d = DirectedMixedGraph(3, [(0, 1), (1, 2), (0, 2)])
        oracle = GraphicalOracle(truth)
        out = ancestry_propagation(oracle, d)
        assert nonloop(out) == nonloop(d)


class TestDemoReference:
    """The demo answer derived from the separation definition alone.

    A sound run deletes ``u -> v`` only on a query that separates ``v``
    from ``u`` given some ``C`` within the observed set minus ``u``, so a
    pair with no such ``C`` is in every sound output. No screening code
    runs here.
    """

    def test_unremovable_pairs_and_truth(self, demo_graph):
        unremovable = set()
        for u in DEMO_OBS:
            rest = [w for w in DEMO_OBS if w != u]
            for v in rest:
                if not any(
                    brute_force_mu_separated(demo_graph, {u}, {v}, c)
                    for c in powerset(rest)
                ):
                    unremovable.add((u, v))
        assert unremovable == {(0, 3), (0, 4), (3, 4), (4, 3)}
        truth = parent_graph(canonical_dg(demo_graph)[0], DEMO_OBS)
        assert set(truth.nonloop_directed) == {(0, 3), (3, 4)}

    def test_witness_walks(self, demo_graph):
        # e <- f -> d: f is hidden and a noncollider, so no C blocks it
        fork = [(4, HEAD, 5, TAIL), (5, TAIL, 3, HEAD)]
        # a -> b -> d -> e is open while d is not conditioned on ...
        chain = [(0, TAIL, 1, HEAD), (1, TAIL, 3, HEAD), (3, TAIL, 4, HEAD)]
        # ... and a -> b <- f -> e once it is: the collider b is an ancestor of d
        collider = [(0, TAIL, 1, HEAD), (1, HEAD, 5, TAIL), (5, TAIL, 4, HEAD)]
        for c in powerset((0, 3)):
            assert walk_is_mu_connecting(demo_graph, fork, c)
        for c in powerset((3, 4)):
            walk = collider if 3 in c else chain
            assert walk_is_mu_connecting(demo_graph, walk, c)


class TestComposedRuns:
    def test_cs_demo(self, demo_graph):
        res = run("cs", oracle_for(demo_graph))
        assert nonloop(res.graph) == {(0, 3), (0, 4), (3, 4), (4, 3)}
        assert res.oracle_calls == 10
        assert res.algorithm is Algorithm.CS

    def test_all_variants_agree_on_demo(self, demo_graph):
        outs = {}
        for algo in ("cs", "csapc", "csap", "ca"):
            res = run(algo, oracle_for(demo_graph))
            outs[algo] = (nonloop(res.graph), res.oracle_calls)
        target = {(0, 3), (0, 4), (3, 4), (4, 3)}
        assert outs["cs"] == (target, 10)
        assert outs["csapc"] == (target, 10)
        assert outs["csap"] == (target, 10)
        assert outs["ca"] == (target, 20)

    def test_trek_only_variant(self, demo_graph):
        res = run(Algorithm.TREK_ONLY, oracle_for(demo_graph))
        assert res.oracle_calls == 6
        assert {e.stage for e in res.trace} == {"trek"}

    def test_cs_recovers_chain(self, chain3):
        res = run("cs", GraphicalOracle(chain3))
        assert res.graph == chain3
        assert res.oracle_calls == 9
        assert res.certificates == {
            (0, 2): frozenset({1, 2}),
            (1, 0): frozenset({0}),
            (2, 0): frozenset({0}),
            (2, 1): frozenset({1}),
        }

    def test_ca_on_chain(self, chain3):
        res = run("ca", GraphicalOracle(chain3))
        assert res.graph == chain3
        assert res.oracle_calls == 17
        # CA certificates are minimum-cardinality separating sets
        assert res.certificates == {
            (0, 2): frozenset({1}),
            (1, 0): frozenset({0}),
            (2, 0): frozenset({0}),
            (2, 1): frozenset({1}),
        }

    def test_empty_truth_costs(self):
        truth = DirectedMixedGraph(3)
        cs_res = run("cs", GraphicalOracle(truth))
        ca_res = run("ca", GraphicalOracle(truth))
        assert nonloop(cs_res.graph) == nonloop(ca_res.graph) == set()
        # everything falls at the first (empty-set) query
        assert cs_res.oracle_calls == 6
        assert ca_res.oracle_calls == 6
        assert set(ca_res.certificates.values()) == {frozenset()}

    def test_csap_ancestry_improves_on_bidirected_chain(self):
        truth = DirectedMixedGraph(4, bidirected=[(1, 2), (2, 3)])
        cs_res = run("cs", GraphicalOracle(truth))
        ap_res = run("csap", GraphicalOracle(truth))
        assert nonloop(cs_res.graph) == {(1, 2), (2, 1), (2, 3), (3, 2)}
        assert nonloop(ap_res.graph) == {(1, 2), (3, 2)}
        assert cs_res.oracle_calls == ap_res.oracle_calls == 16
        removed = [e.edge for e in ap_res.trace if e.stage == "ancestry"]
        assert removed == [(2, 1), (2, 3)]
        # propagation removals carry no separating set
        assert all(e not in ap_res.certificates for e in removed)

    def test_unknown_algorithm(self, chain3):
        with pytest.raises(ValueError):
            run("nope", GraphicalOracle(chain3))

    def test_observed_must_be_queryable(self, demo_graph):
        oracle = GraphicalOracle(demo_graph, observed=DEMO_OBS)
        with pytest.raises(GraphError):
            run("cs", oracle, observed=(0, 1))

    def test_deterministic_end_to_end(self, demo_graph):
        a = run("csap", oracle_for(demo_graph))
        b = run("csap", oracle_for(demo_graph))
        assert a.graph == b.graph
        assert a.trace == b.trace
        assert a.certificates == b.certificates

    def test_random_order_is_seed_deterministic(self, demo_graph):
        a = run("cs", oracle_for(demo_graph), order="random", seed=11)
        b = run("cs", oracle_for(demo_graph), order="random", seed=11)
        assert a.trace == b.trace

    def test_order_does_not_change_exact_recovery(self):
        truth = DirectedMixedGraph(4, [(0, 1), (1, 2), (0, 3), (3, 2)])
        lex = run("cs", GraphicalOracle(truth))
        rnd = run("cs", GraphicalOracle(truth), order="random", seed=3)
        assert lex.graph == rnd.graph == truth

    def test_rejects_bad_order(self, chain3):
        with pytest.raises(ValueError):
            run("cs", GraphicalOracle(chain3), order="sideways")

    def test_trace_covers_every_pair_decision(self, demo_graph):
        res = run("cs", oracle_for(demo_graph))
        edges = {e.edge for e in res.trace}
        m = len(DEMO_OBS)
        assert len(edges) == m * (m - 1)
        assert {e.action for e in res.trace} <= {"kept", "removed"}


class TestSoundnessAndBudget:
    def test_outputs_cover_the_parent_graph(self):
        """No algorithm may drop a true parent edge, at any density."""
        for k, g in enumerate(random_corpus(60, 2024, ns=(3, 4, 5, 6))):
            obs = random_observed(g.n, 2024, k)
            dg, _ = canonical_dg(g)
            truth = parent_graph(dg, obs)
            m = len(obs)
            for algo in ("cs", "csapc", "csap", "ca"):
                res = run(algo, GraphicalOracle(g, obs))
                excess_edges(res.graph, truth)  # raises on a missing edge
                if algo in ("cs", "csapc"):
                    assert res.oracle_calls <= 2 * m * (m - 1)
