"""The bit-parallel separation search against the reference search on edge sets.

``mu_separated`` runs it fresh; the oracle keeps its result, one reach mask
per (sources, conditioning set), and answers later targets from it. The
search checks colliders against C and the reference against anc(C), so
agreement on the whole mask checks that the two rules reach the same
nodes. The same search run backwards from the targets (``_into``) is
checked against the forward one, and so is the search run for every
conditioning set at once (``_closure``), which the oracle builds for a
source of a small projection once the source has asked ``_PROMOTE``
distinct sets. Graphs of 65 nodes and more make the node masks wider than
one machine word. The oracle must answer, count and fail alike whether it
builds closures at the first search of every source, at a later one or
never, and whatever its bound on kept results; the golden digest, the
unlogged runs and criterion 1's enumeration are rerun at the first search
and never. The last test checks the conditioning sets CA hands the oracle.
"""
import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from causalscreen import (DirectedMixedGraph, GraphError, GraphicalOracle,
                          latent_projection, mu_separated, run, separation)
from causalscreen.experiments import CorpusConfig, random_dmg
import test_acceptance as acceptance
import test_screening_golden as golden
from helpers import (
    brute_force_mu_separated,
    ca_queries,
    directed_trek_exists,
    powerset,
    random_corpus,
    reference_head_reach,
    reference_mu_separated,
    sparse_dmg,
)

# Sorted, gapped ids: the node masks renumber them to 0..N-1.
SPARSE_IDS = (3, 17, 1000, 1001, 40_000, 10**9)


def check_against_reference(g, data, max_given=6, per_node=False):
    """Answers, and the whole head-arrival mask the oracle keeps for (A, C).

    The mask is checked against one reference search per (A, C) run to the
    end; with ``per_node`` that search is checked against the early-exit
    reference for each node as the target.
    """
    nodes = st.sampled_from(g.nodes)
    a = data.draw(st.sets(nodes, min_size=1, max_size=4))
    b = data.draw(st.sets(nodes, min_size=1, max_size=4))
    c = data.draw(st.sets(nodes, max_size=max_given))
    meet = data.draw(st.sets(st.sampled_from(sorted(b)), min_size=1))
    # empty C, a random C, C meeting B, and A inside C
    for cond in (set(), c, c | meet, c | a):
        assert mu_separated(g, a, b, cond) == reference_mu_separated(g, a, b, cond)
        reached = reference_head_reach(g, a, cond)
        if per_node:
            assert reached == {v for v in g.nodes
                               if not reference_mu_separated(g, a, {v}, cond)}
        want = sum(g._bit[v] for v in reached)
        assert separation._from(g, *separation._start(g, a, cond)) == want


@given(sparse_dmg(), st.data())
@settings(max_examples=300)
def test_compiled_search_matches_reference(g, data):
    check_against_reference(g, data, per_node=True)


# No shrink phase: shrinking a failure on graphs this wide takes minutes, so
# a wrong search fails at once here, and the small-graph test above shrinks
# the same fault to a minimal example.
@given(sparse_dmg(min_n=65, max_n=110, min_degree=1), st.data())
@settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow,
                                                    HealthCheck.data_too_large],
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_compiled_search_matches_reference_on_wide_masks(g, data):
    check_against_reference(g, data, max_given=20)


def check_into_against_forward(g, data):
    """The closure into B given C against one forward search per source node.

    ``_into`` must hold exactly the nodes from which a forward search given
    C reaches B by a head arrival, for C = B (the trek test), a random C
    and C meeting B.
    """
    nodes = st.sampled_from(g.nodes)
    b = separation._mask(g._bit, data.draw(st.sets(nodes, min_size=1, max_size=3)))
    c = separation._mask(g._bit, data.draw(st.sets(nodes, max_size=8)))
    for cond in (b, c, c | b):
        want = sum(g._bit[v] for v in g.nodes
                   if separation._from(g, g._bit[v], cond) & b)
        assert separation._into(g, b, cond) == want


@given(sparse_dmg(max_n=20), st.data())
@settings(max_examples=300)
def test_target_side_closure_matches_forward_search_with_hidden_nodes(truth, data):
    observed = data.draw(st.sets(st.sampled_from(truth.nodes), min_size=1))
    check_into_against_forward(latent_projection(truth, observed), data)


@given(sparse_dmg(min_n=65, max_n=110, min_degree=1), st.data())
@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow,
                                                    HealthCheck.data_too_large],
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_target_side_closure_matches_forward_search_on_wide_masks(g, data):
    check_into_against_forward(g, data)


def check_closure_against_forward(g, a):
    """Bit c of each node's int from ``_closure`` against ``_from`` given c, for every c."""
    heads = separation._closure(separation._tables(g), a)
    assert len(heads) == g.n
    for c in range(1 << g.n):
        reached = sum((h >> c & 1) << v for v, h in enumerate(heads))
        assert reached == separation._from(g, a, c), c


@given(sparse_dmg(max_n=14), st.data())
@settings(max_examples=200)
def test_closure_matches_forward_search_for_every_conditioning_set(truth, data):
    """On projections of up to 9 nodes, one and several sources; every C,
    those meeting A included, is one bit of the closure."""
    observed = data.draw(st.sets(st.sampled_from(truth.nodes), min_size=1, max_size=9))
    g = latent_projection(truth, observed)
    nodes = st.sampled_from(range(g.n))
    for sources in (data.draw(st.sets(nodes, min_size=1, max_size=1)),
                    data.draw(st.sets(nodes, min_size=min(2, g.n), max_size=4))):
        check_closure_against_forward(g, sum(1 << v for v in sources))


def test_closure_matches_forward_search_on_twelve_nodes():
    """The largest closure the oracle builds: 4,096 sets, on a projection."""
    truth = random_dmg(CorpusConfig(15, 0.15, 0.05, 1, 1), 0)
    g = latent_projection(truth, truth.nodes[:12])
    assert g.n == separation._CLOSURE_NODES and g.bidirected
    for a in (1, 1 << 5, 1 << 11, 0b100010010001):
        check_closure_against_forward(g, a)


@st.composite
def query_streams(draw):
    """A truth, its observed nodes and query streams: CA order, shuffled,
    repeated, and random queries with invalid ones mixed in.

    A query is (sources, targets, given, one_shot); with ``one_shot`` each
    set is passed as an iterator. Invalid queries name a hidden node, an id
    no node has or a label, or have empty sources or targets.
    """
    truth = draw(sparse_dmg(max_n=9))
    observed = sorted(draw(st.sets(st.sampled_from(truth.nodes), min_size=min(2, truth.n),
                                   max_size=6)))
    hidden = [v for v in truth.nodes if v not in observed]
    nodes = st.sampled_from(observed)
    bad = st.sampled_from(hidden + [-1, "x", 1.5])
    node_sets = st.sets(nodes, min_size=1, max_size=3)
    maybe_bad = st.one_of(node_sets, node_sets.flatmap(
        lambda s: st.sets(bad, min_size=1, max_size=1).map(s.union)), st.just(set()))
    ca = [(a, b, c, False) for a, b, c in ca_queries(observed)]
    mixed = draw(st.lists(st.tuples(maybe_bad, maybe_bad,
                                    st.one_of(st.sets(nodes, max_size=4), maybe_bad),
                                    st.booleans()), max_size=40))
    return truth, observed, (
        ca,
        draw(st.permutations(ca)),
        ca + ca,
        draw(st.permutations(mixed + ca[:60] + mixed + ca[:60])),
    )


def answers(truth, observed, queries):
    """Each query's answer or error message, and the final call count."""
    oracle = GraphicalOracle(truth, observed)
    out = []
    for a, b, c, one_shot in queries:
        args = (iter(a), iter(b), iter(c)) if one_shot else (a, b, c)
        try:
            out.append(oracle.query(*args))
        except GraphError as exc:
            out.append(str(exc))
    return out, oracle.calls, oracle._closures


# (_PROMOTE, _MAX_SEARCHES) pairs checked against an oracle that never builds
# a closure: closures from a source's first, second or third search, under
# the default bound and under one of 16 kept results that clears them often,
# and the defaults themselves.
PROMOTIONS = ((1, separation._MAX_SEARCHES), (1, 16), (2, 16), (3, 16),
              (separation._PROMOTE, 16), (separation._PROMOTE, separation._MAX_SEARCHES))


@given(query_streams())
@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
def test_closures_do_not_change_answers_counts_or_errors(case):
    """With a closure at every source's first search, at its second or
    third, at the default count or never, and with kept results cleared at
    16 entries or at the default bound, each stream gives the same answers,
    the same errors in the same order and the same ``calls``."""
    truth, observed, streams = case
    for k, queries in enumerate(streams):
        with mock.patch.object(separation, "_PROMOTE", 10**9):
            want, calls, closures = answers(truth, observed, queries)
        assert not closures
        assert calls == sum(isinstance(w, bool) for w in want)
        for promote, bound in PROMOTIONS:
            with mock.patch.object(separation, "_PROMOTE", promote), \
                    mock.patch.object(separation, "_MAX_SEARCHES", bound):
                got, promoted_calls, closures = answers(truth, observed, queries)
            assert got == want
            assert promoted_calls == calls
            if promote == 1 and k < 3 and queries:    # CA streams start with a first search
                assert closures


def test_empty_targets_fail_on_a_closure():
    """Once a source has a closure, empty targets, as a set or a one-shot
    iterator, still fail as empty and are not counted."""
    g = DirectedMixedGraph(3, directed=[(0, 1), (1, 2)])
    with mock.patch.object(separation, "_PROMOTE", 1):
        oracle = GraphicalOracle(g)
        assert oracle.query({0}, {2}, {1}) is True
        assert oracle._closures
        for targets in (set(), iter([])):
            with pytest.raises(GraphError, match="source and target sets must be nonempty"):
                oracle.query({0}, targets, {1})
        with pytest.raises(GraphError, match=r"unknown nodes \[5\]"):
            oracle.query({0}, {2}, {5})
        assert oracle.query(iter([0]), iter([1, 2]), iter([])) is False
        assert oracle.calls == 2


FORCED = pytest.mark.parametrize("promote", [1, 10**9], ids=["closure-first", "no-closure"])


@FORCED
def test_golden_digest_with_forced_promotion(monkeypatch, promote):
    monkeypatch.setattr(separation, "_PROMOTE", promote)
    assert golden.screening_digest() == golden.GOLDEN


@FORCED
def test_unlogged_runs_match_logged_runs_with_forced_promotion(monkeypatch, promote):
    monkeypatch.setattr(separation, "_PROMOTE", promote)
    golden.test_unlogged_runs_match_logged_runs()


def test_criterion_01_enumeration_through_oracles_with_forced_promotion(monkeypatch):
    """Criterion 1's corpus and queries, asked of two oracles per graph: one
    that answers every source from its closure and one that never builds a
    closure."""
    queries = mismatches = 0
    for g in acceptance.separation_corpus():
        oracles = {}
        for promote in (1, 10**9):
            monkeypatch.setattr(separation, "_PROMOTE", promote)
            oracles[promote] = GraphicalOracle(g)
        for a in g.nodes:
            rest = [v for v in g.nodes if v != a]
            for c in powerset(rest):
                for b in g.nodes:
                    want = brute_force_mu_separated(g, {a}, {b}, c)
                    for promote, oracle in oracles.items():
                        monkeypatch.setattr(separation, "_PROMOTE", promote)
                        queries += 1
                        mismatches += oracle.query({a}, {b}, c) != want
        assert oracles[1]._closures and not oracles[10**9]._closures
    assert queries == 2 * 55944 and mismatches == 0


@pytest.mark.parametrize("seed", range(6))
def test_oracle_matches_reference_on_wide_masks(seed):
    """One oracle on the projection of a ~100-node truth, queried at random."""
    n = 96 + seed
    truth = random_dmg(CorpusConfig(n, 1.0 / n, 0.5 / n, 1, seed), 0)
    observed = [v for v in truth.nodes if v % 5]
    oracle = GraphicalOracle(truth, observed)
    rng = random.Random(seed)
    for _ in range(150):
        a = set(rng.sample(observed, rng.randint(1, 3)))
        b = set(rng.sample(observed, rng.randint(1, 3)))
        c = set(rng.sample(observed, rng.randint(0, 25)))
        for cond in (c, c | b):
            want = reference_mu_separated(truth, a, b, cond)
            assert oracle.query(a, b, cond) == want
            assert oracle.query(a, b, cond) == want   # answered from the kept mask


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
    """Kept reach masks answer in any query order as a fresh reference search.

    The reference runs on the truth, hidden nodes included; the oracle on
    its projection. One oracle per query stream, so its masks carry over
    between the stream's queries. Each stream runs under the default bound
    on kept masks and under a bound of 3, which drops them all every few
    (sources, conditioning set) pairs.
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
    for bound in (separation._MAX_SEARCHES, 3):
        with mock.patch.object(separation, "_MAX_SEARCHES", bound):
            for queries in streams:
                oracle = GraphicalOracle(truth, observed)
                for a, b, c in queries:
                    key = (frozenset(a), frozenset(b), frozenset(c))
                    if key not in want:
                        want[key] = reference_mu_separated(truth, a, b, c)
                    assert oracle.query(a, b, c) == want[key], key
                    assert len(oracle._searches) <= bound
                assert oracle.calls == len(queries)


class RecordingOracle:
    """Forwards to an oracle and records the arguments of every query."""

    def __init__(self, oracle):
        self._oracle = oracle
        self.asked = []
        self.observed = oracle.observed

    @property
    def calls(self):
        return self._oracle.calls

    def label(self, v):
        return self._oracle.label(v)

    def query(self, sources, targets, given=()):
        self.asked.append((sources, targets, given))
        return self._oracle.query(sources, targets, given)


@pytest.mark.parametrize("order", ["lex", "random"])
def test_ca_hands_frozen_subsets_in_combinations_order(order):
    """CA asks each pair's conditioning sets as frozensets, in powerset order.

    Every pair's sets are a prefix of the subsets of the other nodes by
    size, then lexicographically, ending at the certificate when the edge
    is removed. One pair's sets and its source are frozen once: they pass
    through ``frozenset`` as themselves, and the next pair with the same
    source gets the same objects.
    """
    truth = random_dmg(CorpusConfig(7, 0.25, 0.1, 1, 5), 0)
    observed = truth.nodes[1:]
    oracle = RecordingOracle(GraphicalOracle(truth, observed))
    result = run("ca", oracle, order=order, seed=5)
    assert len(oracle.asked) == result.oracle_calls

    by_pair, pair_order = {}, []
    for sources, targets, given in oracle.asked:
        assert type(sources) is type(targets) is type(given) is frozenset
        assert frozenset(given) is given
        (a,), (b,) = sources, targets
        if (a, b) not in by_pair:
            pair_order.append((a, b))
        by_pair.setdefault((a, b), []).append(given)
    assert pair_order == [e.edge for e in result.trace]
    assert 0 < len(result.certificates) < len(pair_order)   # removed and kept pairs
    for (a, b), sets in by_pair.items():
        subsets = [frozenset(c) for c in powerset([v for v in observed if v != a])]
        assert sets == subsets[:len(sets)]
        if (a, b) in result.certificates:
            assert result.certificates[(a, b)] == sets[-1]
        else:
            assert len(sets) == len(subsets)
    previous, reuse = None, 0
    for (a, b) in pair_order:
        if previous is not None and previous[0] == a:
            assert all(x is y for x, y in zip(by_pair[previous], by_pair[(a, b)]))
            reuse += 1
        previous = (a, b)
    if order == "lex":
        assert reuse == len(observed) * (len(observed) - 2)
