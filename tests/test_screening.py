"""Screening stages and their compositions against the graphical oracle."""
import re
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalscreen import (
    Algorithm,
    DirectedMixedGraph,
    GraphError,
    GraphicalOracle,
    LearnResult,
    TraceEntry,
    ancestry_propagation,
    ancestry_propagation_cheap,
    canonical_dg,
    directed_part,
    excess_edges,
    latent_projection,
    parent_step,
    run,
    trek_step,
)
from conftest import DEMO_OBS
from helpers import (
    HEAD,
    TAIL,
    LoggingOracle,
    brute_force_mu_separated,
    check_masks_as_constructed,
    graph_strategy,
    powerset,
    random_corpus,
    random_observed,
    reference_parent_graph,
    sparse_dmg,
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
        """The conditioning set is the target's own set, and each node has one set."""
        oracle = LoggingOracle(GraphicalOracle(demo_graph, observed=DEMO_OBS))
        trek_step(oracle)
        single = {}
        for sources, targets, given, _ in oracle.log:
            assert given is targets
            assert len(sources) == len(targets) == 1
            for node_set in (sources, targets):
                assert single.setdefault(next(iter(node_set)), node_set) is node_set
        assert len(single) == len(DEMO_OBS)

    def test_exact_cost_everywhere(self):
        for k, g in enumerate(random_corpus(40, 808)):
            obs = random_observed(g.n, 808, k)
            oracle = GraphicalOracle(g, obs)
            trek_step(oracle)
            m = len(obs)
            assert oracle.calls == m * (m - 1)

    def test_empty_observed_set_is_rejected(self, chain3):
        oracle = GraphicalOracle(chain3)
        with pytest.raises(GraphError, match="observed set must be nonempty"):
            trek_step(oracle, ())
        assert oracle.calls == 0


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
        oracle = LoggingOracle(GraphicalOracle(truth))
        parent_step(oracle, d)
        sources, _, given, _ = oracle.log[-1]
        assert sources == frozenset({1})
        assert given == frozenset({2})

    def test_rejects_bidirected_input(self, chain3):
        """Every step that takes a graph refuses one with bidirected edges."""
        oracle = GraphicalOracle(chain3)
        mixed = DirectedMixedGraph(3, bidirected=[(0, 1)])
        for step in (lambda: parent_step(oracle, mixed),
                     lambda: ancestry_propagation(oracle, mixed),
                     lambda: ancestry_propagation_cheap(mixed)):
            with pytest.raises(GraphError, match="screening works on directed graphs only"):
                step()
        assert oracle.calls == 0


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
        truth = reference_parent_graph(canonical_dg(demo_graph)[0], DEMO_OBS)
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
        for observed, message in [
            ((0, 1), "unknown nodes [1]"),
            ((0, 3, 7, 1), "unknown nodes [1, 7]"),
            ((0, 1.0, 3), "node id 1.0 is not an integer"),
            ((True, 3), "node id True is not an integer"),
            ((0, "3"), "node id '3' is not an integer"),
            ((), "observed set must be nonempty"),
        ]:
            with pytest.raises(GraphError, match=re.escape(message)):
                run("cs", oracle, observed=observed)
            # rejected before the first query
            assert oracle.calls == 0, observed
        # a repeated id is the same id
        assert run("cs", oracle, observed=(0, 0, 3)) == run("cs", oracle, observed=(0, 3))

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
        c = run("cs", oracle_for(demo_graph), order="random", seed=np.int64(11))
        assert c == a

    @pytest.mark.parametrize("order", ["lex", "random"])
    @pytest.mark.parametrize("seed, message", [
        (-7, "seed must be >= 0, got -7"),
        (True, "seed True is not an integer"),
        ("abc", "seed 'abc' is not an integer"),
        (2.5, "seed 2.5 is not an integer"),
        (None, "seed None is not an integer"),
    ])
    def test_bad_seed_is_rejected_before_the_first_query(self, demo_graph, order, seed,
                                                         message):
        oracle = oracle_for(demo_graph)
        with pytest.raises(ValueError, match=re.escape(message)):
            run("cs", oracle, order=order, seed=seed)
        assert oracle.calls == 0

    def test_order_does_not_change_exact_recovery(self):
        truth = DirectedMixedGraph(4, [(0, 1), (1, 2), (0, 3), (3, 2)])
        lex = run("cs", GraphicalOracle(truth))
        rnd = run("cs", GraphicalOracle(truth), order="random", seed=3)
        assert lex.graph == rnd.graph == truth

    def test_rejects_bad_order(self, chain3):
        with pytest.raises(ValueError):
            run("cs", GraphicalOracle(chain3), order="sideways")

    @given(graph_strategy(max_n=7), st.data())
    @settings(max_examples=80)
    def test_steps_compose_to_run(self, g, data):
        """trek_step, an optional propagation and parent_step give run's graph
        and call count; the traced benchmark pass relies on this."""
        obs = data.draw(st.sets(st.sampled_from(g.nodes), min_size=1))
        for algo in ("cs", "csapc", "csap"):
            oracle = GraphicalOracle(g, obs)
            d = trek_step(oracle)
            if algo == "csapc":
                d = ancestry_propagation_cheap(d)
            elif algo == "csap":
                d = ancestry_propagation(oracle, d)
            d = parent_step(oracle, d)
            res = run(algo, GraphicalOracle(g, obs))
            assert (d, d.labels()) == (res.graph, res.graph.labels())
            assert oracle.calls == res.oracle_calls

    @given(sparse_dmg(min_n=3, max_n=9), st.data())
    @settings(max_examples=60)
    def test_pair_order_changes_neither_graph_nor_calls(self, truth, data):
        """Every algorithm, on the projection of a truth with up to n - 2
        hidden nodes, learns the same graph with the same number of queries
        in lex order and in random order under two seeds. Certificates may
        differ: a parent-stage set is pa(b) without a, read as the pairs
        before it left it."""
        hidden = data.draw(st.sets(st.sampled_from(truth.nodes), max_size=truth.n - 2))
        projection = latent_projection(truth, [v for v in truth.nodes if v not in hidden])
        seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2,
                                   unique=True))
        for algo in Algorithm:
            lex = run(algo, GraphicalOracle(projection))
            for seed in seeds:
                shuffled = run(algo, GraphicalOracle(projection), order="random", seed=seed)
                assert shuffled.graph == lex.graph, (algo, seed)
                assert shuffled.oracle_calls == lex.oracle_calls, (algo, seed)

    def test_trace_covers_every_pair_decision(self, demo_graph):
        res = run("cs", oracle_for(demo_graph))
        edges = {e.edge for e in res.trace}
        m = len(DEMO_OBS)
        assert len(edges) == m * (m - 1)
        assert {e.action for e in res.trace} <= {"kept", "removed"}


@given(sparse_dmg(max_n=8), st.data())
@settings(max_examples=40, deadline=None)
def test_learned_graphs_build_constructor_masks(g, data):
    observed = data.draw(st.sets(st.sampled_from(g.nodes), min_size=1))
    proj = latent_projection(g, observed)
    for algo in ("cs", "csapc", "csap", "ca"):
        learned = run(algo, GraphicalOracle(proj)).graph
        check_masks_as_constructed(learned)
        assert learned.labels() == proj.labels()
    trek = trek_step(GraphicalOracle(proj))
    for built in (trek, parent_step(GraphicalOracle(proj), trek),
                  ancestry_propagation_cheap(trek)):
        check_masks_as_constructed(built)


def test_explicit_observed_ids_become_ints(chain3):
    res = run("cs", GraphicalOracle(chain3), [np.int64(0), np.int64(2)])
    assert res.graph.nodes == (0, 2) and all(type(v) is int for v in res.graph.nodes)
    check_masks_as_constructed(res.graph)


class TestSoundnessAndBudget:
    def test_outputs_cover_the_parent_graph(self):
        """No algorithm may drop a true parent edge, at any density."""
        for k, g in enumerate(random_corpus(60, 2024, ns=(3, 4, 5, 6))):
            obs = random_observed(g.n, 2024, k)
            dg, _ = canonical_dg(g)
            truth = reference_parent_graph(dg, obs)
            m = len(obs)
            for algo in ("cs", "csapc", "csap", "ca"):
                res = run(algo, GraphicalOracle(g, obs))
                excess_edges(res.graph, truth)  # raises on a missing edge
                if algo in ("cs", "csapc"):
                    assert res.oracle_calls <= 2 * m * (m - 1)


# The pair stages of each algorithm, in run order.
STAGES = {
    Algorithm.CA: ("ca",),
    Algorithm.TREK_ONLY: ("trek",),
    Algorithm.CS: ("trek", "parent"),
    Algorithm.CSAPC: ("trek", "ancestry", "parent"),
    Algorithm.CSAP: ("trek", "ancestry", "parent"),
}


def hidden_projection(truth, data):
    """The projection of ``truth`` onto a drawn nonempty observed set."""
    hidden = data.draw(st.sets(st.sampled_from(truth.nodes), max_size=truth.n - 1))
    return latent_projection(truth, [v for v in truth.nodes if v not in hidden])


def check_pair_stage(entries, queries, certificates):
    """One pair stage's trace entries against the queries it asked, in order.

    Each entry is one run of queries about its pair: every answer but the
    last is "dependent", and the last decides. An independent answer
    removes the edge, and its conditioning set is the certificate.
    """
    runs = [(pair, list(qs)) for pair, qs in groupby(queries, key=lambda q: q[:2])]
    assert [e.edge for e in entries] == [pair for pair, _ in runs]
    for entry, (pair, qs) in zip(entries, runs):
        *dependent, (_, _, given, independent) = qs
        assert not any(q[3] for q in dependent)
        assert entry.action == ("removed" if independent else "kept")
        if independent:
            assert certificates[pair] == given


class TestTrace:
    # 60 examples, or more under a profile that asks for more (CI's fuzz)
    @given(sparse_dmg(min_n=2, max_n=9), st.data())
    @settings(max_examples=max(60, settings.default.max_examples))
    def test_trace_matches_queries_certificates_and_graph(self, truth, data):
        """The decoded trace of every algorithm, in lex and random order.

        Stages come whole and in run order. The first stage lists every
        ordered pair once, in the order the queries ask about them. The
        propagation lists its removals sorted, each an edge the trek stage
        kept. The parent stage lists, in trek order, each pair whose edge
        reached it. Removals are the certificates' keys plus the
        propagation's, and the graph is the complete graph without them.
        The public constructor, given the decoded trace, builds an equal
        result.
        """
        projection = hidden_projection(truth, data)
        observed = projection.nodes
        pairs = {(a, b) for a in observed for b in observed if a != b}
        seed = data.draw(st.integers(0, 2**32 - 1))
        for algo in Algorithm:
            for order in ({"order": "lex"}, {"order": "random", "seed": seed}):
                oracle = LoggingOracle(GraphicalOracle(projection))
                res = run(algo, oracle, **order)
                queries = [(a, b, given, answer)
                           for (a,), (b,), given, answer in oracle.log]
                assert len(queries) == res.oracle_calls
                stages = STAGES[algo]
                by_stage = {s: [e for e in res.trace if e.stage == s] for s in stages}
                assert res.trace == tuple(e for s in stages for e in by_stage[s])

                first = by_stage[stages[0]]
                assert {e.edge for e in first} == pairs
                assert len(first) == len(pairs)
                parent = by_stage.get("parent", [])
                # trek: one query per pair; then the propagation's marginal
                # queries (CSAP only); then one parent query per entry
                split = len(queries) - len(parent)
                check_pair_stage(first, queries if algo is Algorithm.CA else queries[:len(pairs)],
                                 res.certificates)
                check_pair_stage(parent, queries[split:], res.certificates)
                middle = [] if algo is Algorithm.CA else queries[len(pairs):split]
                assert all(given == frozenset() for _, _, given, _ in middle)
                assert algo is Algorithm.CSAP or not middle

                ancestry = [e.edge for e in by_stage.get("ancestry", [])]
                assert ancestry == sorted(set(ancestry))
                kept_by_trek = [e.edge for e in first if e.action == "kept"]
                assert set(ancestry) <= set(kept_by_trek)
                if "parent" in stages:
                    assert [e.edge for e in parent] == [
                        pair for pair in kept_by_trek if pair not in ancestry]

                removed = [e.edge for e in res.trace if e.action == "removed"]
                assert len(removed) == len(set(removed))
                assert set(removed) == pairs - nonloop(res.graph)
                assert set(res.certificates) == set(removed) - set(ancestry)

                rebuilt = LearnResult(res.graph, res.algorithm, res.oracle_calls,
                                      res.certificates, res.trace)
                assert rebuilt == res and rebuilt.trace == res.trace
                assert repr(rebuilt) == repr(res)

    def test_constructor_keeps_any_trace(self, chain3):
        """A hand-built trace, with a stage that recurs, reads back as given."""
        res = run("cs", GraphicalOracle(chain3))
        trace = [TraceEntry((0, 1), "kept", "trek"), TraceEntry((1, 0), "removed", "trek"),
                 TraceEntry((0, 1), "kept", "parent"), TraceEntry((2, 1), "removed", "trek")]
        built = LearnResult(res.graph, res.algorithm, res.oracle_calls, {}, trace)
        assert built.trace == tuple(trace)
        assert built != LearnResult(res.graph, res.algorithm, res.oracle_calls, {}, trace[:3])
        assert LearnResult(res.graph, res.algorithm, 0, {}, ()).trace == ()
        with pytest.raises(ValueError, match="unknown trace action 'dropped'"):
            LearnResult(res.graph, res.algorithm, 0, {}, [TraceEntry((0, 1), "dropped", "trek")])


class FlippingOracle:
    """Forwards to an oracle but gives the wrong answer at chosen query indices.

    ``wrong`` records (pair, answer given) for each flipped query.
    """

    def __init__(self, oracle, flips):
        self._oracle = oracle
        self._flips = flips
        self._asked = 0
        self.wrong: list = []
        self.observed = oracle.observed

    @property
    def calls(self) -> int:
        return self._oracle.calls

    def label(self, v):
        return self._oracle.label(v)

    def query(self, sources, targets, given=()):
        answer = self._oracle.query(sources, targets, given)
        k, self._asked = self._asked, self._asked + 1
        if k in self._flips:
            answer = not answer
            (a,), (b,) = sources, targets
            self.wrong.append(((a, b), answer))
        return answer


@given(sparse_dmg(min_n=2, max_n=9), st.data())
@settings(max_examples=100)
def test_each_wrong_independent_costs_cs_only_the_edge_asked_about(truth, data):
    """CS loses at most one true edge per wrong "independent" about a true edge.

    A true parent a -> b is a direct edge of the projection, so no set
    without a separates b from a, and every CS query about (a, b)
    conditions on such a set: only a wrong "independent" can remove it,
    and it removes only the edge asked about. A wrong "dependent" keeps an
    edge. So the true edges CS loses are exactly those given a wrong
    "independent", one per such answer.
    """
    projection = hidden_projection(truth, data)
    true_edges = set(directed_part(projection).nonloop_directed)
    order = data.draw(st.sampled_from([{"order": "lex"}, {"order": "random", "seed": 7}]))
    honest = LoggingOracle(GraphicalOracle(projection))
    run("cs", honest, **order)
    # any queries, plus some about true edges, so that losses are common
    on_true = [k for k, ((a,), (b,), _, _) in enumerate(honest.log) if (a, b) in true_edges]
    flips = data.draw(st.sets(st.integers(0, max(len(honest.log) - 1, 0)), max_size=3))
    if on_true:
        flips |= data.draw(st.sets(st.sampled_from(on_true), max_size=2))
    oracle = FlippingOracle(GraphicalOracle(projection), flips)
    res = run("cs", oracle, **order)
    lost = true_edges - nonloop(res.graph)
    wrong_independent = [pair for pair, said in oracle.wrong if said and pair in true_edges]
    assert lost == set(wrong_independent)
