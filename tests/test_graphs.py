"""Structural layer: construction, ancestry, projection, treks, serialization."""
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
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
    descendant_closure,
    directed_trek_exists,
    enumerate_trek_into,
    graph_strategy,
    random_corpus,
    random_observed,
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
        assert g.node_by_label("p") == 0

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

    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                 .filter(lambda e: e[0] != e[1]), max_size=n))))
    @settings(max_examples=150)
    def test_adjacency_maps_match_edge_sets(self, drawn):
        n, directed, bidirected = drawn
        # lists and numpy ints as edge ends: the constructor normalises both
        g = DirectedMixedGraph(n, [list(e) for e in directed],
                               [tuple(map(np.int64, e)) for e in bidirected])
        assert g.directed == set(directed) | {(v, v) for v in range(n)}
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
        ({"bidirected": [("1", 1)]}, GraphError, "bidirected self-edge at node 1"),
        ({"directed": [(0, 1, 2)]}, ValueError, "too many values to unpack"),
        ({"directed": [(0,)]}, ValueError, "not enough values to unpack"),
        ({"directed": [5]}, TypeError, None),
        ({"bidirected": [("0", "x")]}, ValueError, "invalid literal for int()"),
    ])
    def test_bad_edges(self, kwargs, error, message):
        with pytest.raises(error) as info:
            DirectedMixedGraph(3, **kwargs)
        if message is not None:
            assert str(info.value).startswith(message)

    def test_edge_ends_are_normalised_to_int(self):
        g = DirectedMixedGraph(3, [("0", np.int64(2))], [(2.0, "1")])
        assert g.directed == {(0, 2), (0, 0), (1, 1), (2, 2)}
        assert g.bidirected == {(1, 2)}
        assert all(type(v) is int for e in g.directed | g.bidirected for v in e)


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


class TestParentGraphAndProjection:
    def test_parent_graph_demo(self, demo_graph):
        pg = parent_graph(demo_graph, DEMO_OBS)
        assert pg.nodes == DEMO_OBS
        assert self._nonloop(pg) == {(0, 3), (3, 4)}

    @staticmethod
    def _nonloop(g):
        return set(g.nonloop_directed)

    def test_parent_graph_rejects_bidirected(self):
        g = DirectedMixedGraph(3, bidirected=[(0, 1)])
        with pytest.raises(GraphError):
            parent_graph(g, (0, 1))

    def test_parent_graph_needs_known_nodes(self, chain3):
        with pytest.raises(GraphError):
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
            assert directed_part(latent_projection(g, obs)) == parent_graph(g, obs)

    def test_projection_composes(self):
        # marginalizing in two stages equals marginalizing once
        for k, g in enumerate(random_corpus(60, 77, ns=(4, 6))):
            big = random_observed(g.n, 77, k)
            small = big[: max(2, len(big) - 1)]
            assert latent_projection(latent_projection(g, big), small) == latent_projection(g, small)


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

    def test_edge_section_must_be_an_array(self):
        with pytest.raises(GraphError, match="'directed' must be an array"):
            DirectedMixedGraph.from_json_dict({"nodes": ["a"], "directed": 5})
