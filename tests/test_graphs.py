"""Structural layer: construction, ancestry, projection, treks, serialization."""
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from causalscreen import (
    DirectedMixedGraph,
    GraphError,
    ancestors,
    canonical_dg,
    directed_part,
    latent_projection,
    parent_graph,
)
from conftest import DEMO_OBS
from helpers import (
    check_masks_as_constructed,
    descendant_closure,
    directed_trek_exists,
    edge_ancestors,
    enumerate_trek_into,
    graph_strategy,
    random_corpus,
    random_observed,
    reference_parent_graph,
    sparse_dmg,
)


class TestConstruction:
    def test_every_node_gets_a_loop(self):
        g = DirectedMixedGraph(4)
        assert sorted(g.directed) == [(v, v) for v in range(4)]

    def test_nodes_from_iterable_of_ids(self):
        g = DirectedMixedGraph([0, 2, 5], [(0, 2)])
        assert g.nodes == (0, 2, 5)
        assert g.has_directed(0, 2)
        assert g.has_directed(5, 5)

    @pytest.mark.parametrize("count", [np.int64(3), np.int32(3), np.uint8(3)])
    def test_numpy_int_node_count(self, count):
        g = DirectedMixedGraph(count, [(0, 2)], [(1, 2)])
        assert g == DirectedMixedGraph(3, [(0, 2)], [(1, 2)])
        assert g.nodes == (0, 1, 2) and all(type(v) is int for v in g.nodes)
        with pytest.raises(GraphError, match="node count must be nonnegative"):
            DirectedMixedGraph(np.int64(-1))

    def test_bidirected_is_unordered(self):
        g = DirectedMixedGraph(3, bidirected=[(2, 1)])
        assert g.bidirected == frozenset({(1, 2)})
        assert g.has_bidirected(1, 2) and g.has_bidirected(2, 1)

    def test_bidirected_self_edge_rejected(self):
        with pytest.raises(GraphError):
            DirectedMixedGraph(2, bidirected=[(1, 1)])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(GraphError):
            DirectedMixedGraph(2, [(0, 3)])
        with pytest.raises(GraphError):
            DirectedMixedGraph(2, bidirected=[(0, 9)])

    def test_label_validation(self):
        with pytest.raises(GraphError):
            DirectedMixedGraph(2, labels=("x", "x"))
        with pytest.raises(GraphError):
            DirectedMixedGraph(2, labels=("x",))
        g = DirectedMixedGraph(2, labels=("p", "q"))
        assert g.label(1) == "q"

    def test_labels_as_mapping(self):
        g = DirectedMixedGraph([4, 7], labels={7: "hi", 4: "lo"})
        assert g.label(4) == "lo"
        assert g.label(7) == "hi"
        with pytest.raises(GraphError, match="no label for node 1"):
            DirectedMixedGraph(2, labels={0: "only"})

    def test_equality_ignores_labels(self):
        a = DirectedMixedGraph(2, [(0, 1)], labels=("x", "y"))
        b = DirectedMixedGraph(2, [(0, 1)], labels=("u", "v"))
        assert a == b
        assert hash(a) == hash(b)

    def test_parents_children_siblings(self, demo_graph):
        assert demo_graph.parents(3) == frozenset({1, 3, 5})
        assert demo_graph.children(5) == frozenset({1, 3, 4, 5})
        g = DirectedMixedGraph(3, bidirected=[(0, 2)])
        assert g.siblings(0) == frozenset({2})
        assert g.siblings(1) == frozenset()

    # A node count with edges over 0..n-1, and the nodes and edges of
    # sparse_dmg graphs: gapped ids up to 10**9, and 65 to 110 nodes, whose
    # masks are wider than a machine word. No shrink phase: shrinking a
    # failure on the wide graphs takes minutes, and a fault in the masks
    # fails the small inputs too.
    @given(st.one_of(
        st.integers(1, 12).flatmap(lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                     .filter(lambda e: e[0] != e[1]), max_size=n))),
        *(strategy.map(lambda g: (g.nodes, sorted(g.directed), sorted(g.bidirected)))
          for strategy in (sparse_dmg(), sparse_dmg(min_n=65, max_n=110, min_degree=1)))))
    @settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow,
                                                        HealthCheck.data_too_large],
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    def test_adjacency_maps_match_edge_sets(self, drawn):
        nodes, directed, bidirected = drawn
        ids = range(nodes) if isinstance(nodes, int) else nodes
        # lists and numpy ints as edge ends: the constructor normalises both
        g = DirectedMixedGraph(nodes, [list(e) for e in directed],
                               [tuple(map(np.int64, e)) for e in bidirected])
        assert g.directed == set(directed) | {(v, v) for v in ids}
        assert g.bidirected == {(min(e), max(e)) for e in bidirected}
        for v in g.nodes:
            assert g.children(v) == {h for t, h in g.directed if t == v}
            assert g.parents(v) == {t for t, h in g.directed if h == v}
            assert g.siblings(v) == ({b for a, b in g.bidirected if a == v}
                                     | {a for a, b in g.bidirected if b == v})
            for adj in (g.children(v), g.parents(v), g.siblings(v)):
                assert type(adj) is frozenset
                assert all(type(u) is int for u in adj)

    @pytest.mark.parametrize("kwargs, error, message", [
        ({"directed": [(0, 3)]}, GraphError, "directed edge (0, 3) mentions unknown node"),
        ({"bidirected": [(9, 0)]}, GraphError, "bidirected edge (9, 0) mentions unknown node"),
        ({"bidirected": [(np.int64(1), 1)]}, GraphError, "bidirected self-edge at node 1"),
        ({"directed": [(0, 1, 2)]}, ValueError, "too many values to unpack"),
        ({"directed": [(0,)]}, ValueError, "not enough values to unpack"),
        ({"directed": [5]}, TypeError, None),
        ({"bidirected": [("0", "x")]}, GraphError, "node id '0' is not an integer"),
        ({"directed": [(True, 2)]}, GraphError, "node id True is not an integer"),
    ])
    def test_bad_edges(self, kwargs, error, message):
        with pytest.raises(error) as info:
            DirectedMixedGraph(3, **kwargs)
        if message is not None:
            assert str(info.value).startswith(message)

    def test_edge_ends_are_normalised_to_int(self):
        g = DirectedMixedGraph(np.arange(3), [(0, np.int64(2))], [(np.int32(2), np.uint8(1))])
        assert g.nodes == (0, 1, 2)
        assert g.directed == {(0, 2), (0, 0), (1, 1), (2, 2)}
        assert g.bidirected == {(1, 2)}
        assert all(type(v) is int for e in g.directed | g.bidirected for v in e)

    @pytest.mark.parametrize("bad", [1.7, "1", 2.5, True, np.float64(2.0), None])
    @pytest.mark.parametrize("role", ["nodes", "directed", "bidirected", "count"])
    def test_non_integer_ids_rejected(self, role, bad):
        args = {"nodes": ([0, bad, 3],),
                "directed": (3, [(0, bad)]),
                "bidirected": (3, (), [(bad, 0)]),
                "count": (bad,)}[role]
        # a string is not a count but an iterable of (bad) ids
        what = "node count" if role == "count" and not isinstance(bad, str) else "node id"
        with pytest.raises(GraphError, match=re.escape(f"{what} {bad!r} is not an integer")):
            DirectedMixedGraph(*args)

    def test_graph_holds_no_derived_state(self):
        assert not any("cache" in name for name in DirectedMixedGraph.__slots__)
        assert not hasattr(DirectedMixedGraph(2), "__dict__")


@st.composite
def edge_input(draw):
    """Node ids and raw edge lists as a caller might pass them.

    Sparse ids up to 10**9, up to 100 nodes (masks wider than a machine
    word), repeated directed edges, bidirected pairs given both ways round
    and repeated, and some ends as numpy ints.
    """
    n = draw(st.one_of(st.integers(1, 12), st.integers(65, 100)))
    ids = sorted(draw(st.sets(st.integers(0, 10**9), min_size=n, max_size=n)))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    directed = [(ids[t], ids[h]) for t, h in draw(st.lists(pair, max_size=3 * n))]
    bidirected = [(ids[x], ids[y]) for x, y in draw(st.lists(pair, max_size=n)) if x != y]
    directed += directed[:draw(st.integers(0, 3))]
    bidirected += [(b, a) for a, b in bidirected[:draw(st.integers(0, 3))]]
    as_numpy = draw(st.booleans())
    if as_numpy:
        directed = [(np.int64(t), h) for t, h in directed]
        bidirected = [(a, np.int32(b) if b < 2**31 else b) for a, b in bidirected]
    return ids, directed, bidirected


class TestMaskEncoding:
    """Edge sets decoded from the masks are exactly the constructor's input.

    The checkers in ``helpers`` read ``directed`` and ``bidirected``, which
    the graph decodes from its masks on each read; this property is what
    keeps them independent of the mask encoding.
    """

    @given(edge_input(), st.data())
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow,
                                                       HealthCheck.data_too_large],
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    def test_round_trip(self, drawn, data):
        ids, directed, bidirected = drawn
        g = DirectedMixedGraph(ids, directed, bidirected)
        loops = {(v, v) for v in ids}
        want_dir = {(int(t), int(h)) for t, h in directed} | loops
        want_bi = {(int(min(e)), int(max(e))) for e in bidirected}
        assert g.directed == want_dir
        assert g.nonloop_directed == want_dir - loops
        assert g.bidirected == want_bi
        assert all(type(v) is int for e in g.directed | g.bidirected for v in e)
        assert g._directed_count() == len(want_dir - loops)
        assert g._bidirected_count() == len(want_bi)

        # the same edges, given in another order and with other labels
        same = DirectedMixedGraph(reversed(ids), sorted(want_dir, reverse=True),
                                  [(b, a) for a, b in want_bi],
                                  labels=[f"x{v}" for v in ids])
        assert same == g and hash(same) == hash(g)
        assert same.labels() != g.labels()

        # one directed or bidirected edge more or fewer
        if len(ids) > 1:
            t, h = data.draw(st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True))
            for other in (DirectedMixedGraph(ids, want_dir ^ {(t, h)}, want_bi),
                          DirectedMixedGraph(ids, want_dir, want_bi ^ {(min(t, h), max(t, h))})):
                assert other != g
                assert (other.directed, other.bidirected) != (g.directed, g.bidirected)
        # one node more, no edge more
        wider = DirectedMixedGraph(ids + [ids[-1] + 1], want_dir, want_bi)
        assert wider != g and wider.directed != g.directed


class TestAncestors:
    def test_demo_value(self, demo_graph):
        assert ancestors(demo_graph, {3}) == frozenset({0, 1, 2, 3, 5})

    def test_reflexive_and_empty(self, demo_graph):
        assert ancestors(demo_graph, ()) == frozenset()
        for v in demo_graph.nodes:
            assert v in ancestors(demo_graph, {v})

    @given(graph_strategy(max_n=6))
    def test_matches_forward_reachability(self, g):
        # independent route: v is an ancestor of C iff C meets v's descendants
        for c in g.nodes:
            got = ancestors(g, {c})
            want = frozenset(v for v in g.nodes if c in descendant_closure(g, v))
            assert got == want

    @given(st.one_of(sparse_dmg(), sparse_dmg(min_n=65, max_n=110, min_degree=1)), st.data())
    @settings(max_examples=80, suppress_health_check=[HealthCheck.too_slow,
                                                       HealthCheck.data_too_large],
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    def test_matches_the_checkers_edge_set_route(self, g, data):
        """Gapped ids up to 10**9, and masks wider than a machine word (no
        shrink phase, as for the adjacency test)."""
        of = data.draw(st.sets(st.sampled_from(g.nodes), max_size=4))
        assert ancestors(g, of) == edge_ancestors(g, of)


class TestParentGraphAndProjection:
    def test_parent_graph_demo(self, demo_graph):
        pg = parent_graph(demo_graph, DEMO_OBS)
        assert pg.nodes == DEMO_OBS
        assert pg.labels() == ("a", "d", "e")
        assert self._nonloop(pg) == {(0, 3), (3, 4)}

    @staticmethod
    def _nonloop(g):
        return set(g.nonloop_directed)

    def test_parent_graph_rejects_bidirected(self):
        g = DirectedMixedGraph(3, bidirected=[(0, 1)])
        with pytest.raises(GraphError, match="defined for directed graphs only"):
            parent_graph(g, (0, 1))
        # the graph is checked before the nodes
        with pytest.raises(GraphError, match="defined for directed graphs only"):
            parent_graph(g, (0, 7))

    def test_parent_graph_needs_known_nodes(self, chain3):
        with pytest.raises(GraphError, match=re.escape("unknown nodes [7]")):
            parent_graph(chain3, (0, 7))

    def test_projection_demo(self, demo_graph):
        proj = latent_projection(demo_graph, DEMO_OBS)
        assert proj.nodes == DEMO_OBS
        assert set(proj.nonloop_directed) == {(0, 3), (3, 4)}
        # node 5 is a hidden common cause of 3 and 4
        assert proj.bidirected == frozenset({(3, 4)})

    def test_projection_identity_when_all_observed(self, demo_graph):
        assert latent_projection(demo_graph, range(6)) == demo_graph

    def test_projection_directed_part_is_parent_graph(self):
        """The directed half of a projection of an unconfounded truth is
        exactly the parent graph over the same margin."""
        for k, g in enumerate(random_corpus(120, 31, ns=(3, 5, 8), p_bis=(0.0,))):
            obs = random_observed(g.n, 31, k)
            got, want = directed_part(latent_projection(g, obs)), reference_parent_graph(g, obs)
            assert (got, got.labels()) == (want, want.labels())

    def test_projection_composes(self):
        # marginalizing in two stages equals marginalizing once
        for k, g in enumerate(random_corpus(60, 77, ns=(4, 6))):
            big = random_observed(g.n, 77, k)
            small = big[: max(2, len(big) - 1)]
            assert latent_projection(latent_projection(g, big), small) == latent_projection(g, small)


    # gapped ids, and 65 to 110 nodes whose masks are wider than a machine word
    @given(st.one_of(sparse_dmg(max_n=20), sparse_dmg(min_n=65, max_n=110, min_degree=1)),
           st.data())
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow,
                                                       HealthCheck.data_too_large],
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    def test_projection_and_directed_part_build_constructor_masks(self, g, data):
        observed = data.draw(st.sets(st.sampled_from(g.nodes), min_size=1))
        # numpy ints as observed ids: the projection's ids are still ints
        proj = latent_projection(g, [np.int64(v) for v in observed])
        for built in (proj, directed_part(proj), directed_part(g)):
            check_masks_as_constructed(built)
        assert proj.nodes == tuple(sorted(observed))
        assert directed_part(proj).directed == proj.directed
        assert directed_part(proj).bidirected == frozenset()


class TestCanonicalDG:
    def test_shape(self):
        g = DirectedMixedGraph(3, [(0, 1)], [(1, 2), (0, 2)])
        dg, obs = canonical_dg(g)
        assert obs == frozenset({0, 1, 2})
        assert not dg.bidirected
        assert dg.n == 5  # one fresh fork per bidirected edge
        forks = [v for v in dg.nodes if v not in obs]
        assert sorted(dg.label(v) for v in forks) == ["confounder0", "confounder1"]
        for v in forks:
            kids = dg.children(v) - {v}
            assert len(kids) == 2 and kids <= obs

    def test_fork_labels_avoid_collisions(self):
        g = DirectedMixedGraph(2, bidirected=[(0, 1)], labels=("confounder0", "x"))
        dg, _ = canonical_dg(g)
        assert len(set(dg.labels())) == dg.n

    def test_no_bidirected_is_identity(self, chain3):
        dg, obs = canonical_dg(chain3)
        assert dg == chain3
        assert obs == frozenset(chain3.nodes)


class TestDirectedTreks:
    def test_single_edge(self):
        g = DirectedMixedGraph(2, [(0, 1)])
        assert directed_trek_exists(g, 0, 1)
        assert not directed_trek_exists(g, 1, 0)

    def test_descent_through_source_is_not_a_trek(self):
        # 2 -> 1 -> 0: the only route from 0 to 1 goes against the first
        # arrow, so nothing arrives at 1 head-first.
        g = DirectedMixedGraph(3, [(2, 1), (1, 0)])
        assert not directed_trek_exists(g, 0, 1)
        assert directed_trek_exists(g, 2, 0)

    def test_fork(self):
        g = DirectedMixedGraph(4, [(3, 2), (2, 0), (2, 1)])
        assert directed_trek_exists(g, 0, 1)
        assert directed_trek_exists(g, 1, 0)

    def test_bidirected_edge_is_a_trek_both_ways(self):
        g = DirectedMixedGraph(2, bidirected=[(0, 1)])
        assert directed_trek_exists(g, 0, 1)
        assert directed_trek_exists(g, 1, 0)

    def test_no_self_treks(self):
        assert not directed_trek_exists(DirectedMixedGraph(1), 0, 0)
        g = DirectedMixedGraph(2, [(0, 1), (1, 0)])
        assert not directed_trek_exists(g, 0, 0)

    def test_matches_path_enumeration(self):
        bad = []
        for g in random_corpus(150, 4242, ns=(3, 4, 5, 6)):
            for a in g.nodes:
                for b in g.nodes:
                    if directed_trek_exists(g, a, b) != enumerate_trek_into(g, a, b):
                        bad.append((g, a, b))
        assert not bad


class TestSerialization:
    def test_json_golden(self):
        g = DirectedMixedGraph(3, [(0, 1), (2, 2)], [(1, 2)], labels=("x", "y", "z"))
        payload = json.loads(g.to_json())
        # loops stay implicit
        assert payload == {
            "nodes": ["x", "y", "z"],
            "directed": [[0, 1]],
            "bidirected": [[1, 2]],
        }

    def test_default_labels_are_indices(self):
        payload = json.loads(DirectedMixedGraph(2, [(0, 1)]).to_json())
        assert payload["nodes"] == ["0", "1"]

    def test_dot_golden(self):
        g = DirectedMixedGraph(3, [(0, 1), (2, 2)], [(1, 2)], labels=("x", "y", "z"))
        assert g.to_dot() == (
            "digraph G {\n"
            '  "x";\n'
            '  "y";\n'
            '  "z";\n'
            '  "x" -> "y";\n'
            '  "y" -> "z" [dir=both];\n'
            "}\n"
        )

    @given(graph_strategy(max_n=6))
    @settings(max_examples=60)
    def test_json_round_trip(self, g):
        assert DirectedMixedGraph.from_json(g.to_json()) == g

    def test_round_trip_keeps_labels(self, demo_graph):
        back = DirectedMixedGraph.from_json(demo_graph.to_json())
        assert back.labels() == demo_graph.labels()

    @pytest.mark.parametrize("key", ["directed", "bidirected"])
    @pytest.mark.parametrize("edge", [[0, 1, 2], [0], 5, "ab", None])
    def test_malformed_edge_is_named(self, key, edge):
        doc = {"nodes": ["a", "b", "c"], key: [[0, 1], edge]}
        with pytest.raises(GraphError, match=re.escape(f"malformed {key} edge {edge!r}:")):
            DirectedMixedGraph.from_json_dict(doc)

    @pytest.mark.parametrize("doc", [
        {"nodes": "abc"}, {"nodes": {"a": 1}}, {"nodes": None}, {},
        {"nodes": ["a", None]}, {"nodes": [True]}, {"nodes": [["a"]]}, ["a"],
    ])
    def test_nodes_must_be_an_array_of_names(self, doc):
        with pytest.raises(GraphError, match="must contain a 'nodes' array of strings or numbers"):
            DirectedMixedGraph.from_json_dict(doc)

    def test_numeric_node_names_become_labels(self):
        g = DirectedMixedGraph.from_json('{"nodes": ["a", 2, 1.5], "directed": [["a", 1.5]]}')
        assert g.labels() == ("a", "2", "1.5")
        assert g.nonloop_directed == {(0, 2)}

    def test_edge_section_must_be_an_array(self):
        with pytest.raises(GraphError, match="'directed' must be an array"):
            DirectedMixedGraph.from_json_dict({"nodes": ["a"], "directed": 5})
