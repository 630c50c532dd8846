"""Directed mixed graphs with mandatory self-loops.

The graphs in this package describe which coordinate processes of a
multivariate dynamical system drive which others: a directed edge ``a -> b``
means the past of process ``a`` enters the evolution of process ``b``
directly, and a bidirected edge ``a <-> b`` stands for an unobserved common
driver of the two. Every node always carries its self-loop ``a -> a``
because a process depends on its own past. Loops are stored explicitly but
are excluded from reported edge counts and from all exporters.

Node identity is a small nonnegative integer, not necessarily contiguous
(operations that restrict a graph to a node subset keep the original ids).
Labels are display metadata only and do not participate in equality.
Graphs are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Mapping
from typing import Iterable, Optional, Sequence, TextIO, Union

__all__ = [
    "GraphError",
    "DirectedMixedGraph",
    "ancestors",
    "parent_graph",
    "latent_projection",
    "directed_part",
    "canonical_dg",
]


class GraphError(ValueError):
    """Malformed graph input: unknown node, bad edge, duplicate label."""


Edge = tuple[int, int]


class DirectedMixedGraph:
    """An immutable directed mixed graph over integer node ids.

    Parameters
    ----------
    nodes : int or iterable of int
        Node count ``n`` (ids ``0..n-1``) or an explicit id collection.
    directed : iterable of (tail, head)
        Directed edges. Self-loops may be included or omitted; the loop
        ``v -> v`` is inserted for every node regardless.
    bidirected : iterable of (a, b)
        Bidirected edges, stored unordered. Bidirected self-edges are
        rejected.
    labels : sequence of str or mapping of id to str, optional
        One label per node: a sequence aligned with the sorted node ids,
        or a mapping covering every id. Defaults to the decimal id.
        Labels must be unique.

    Examples
    --------
    >>> g = DirectedMixedGraph(3, directed=[(0, 1)], bidirected=[(1, 2)])
    >>> sorted(g.nonloop_directed)
    [(0, 1)]
    >>> g.has_directed(2, 2)   # loops are always present
    True
    >>> sorted(g.parents(1))
    [0, 1]
    """

    __slots__ = ("_nodes", "_node_set", "_labels", "_directed", "_bidirected",
                 "_children", "_parents", "_siblings", "_cache")

    def __init__(self, nodes, directed=(), bidirected=(), labels=None):
        if isinstance(nodes, int):
            if nodes < 0:
                raise GraphError("node count must be nonnegative")
            ids = tuple(range(nodes))
        else:
            ids = tuple(sorted({int(v) for v in nodes}))
        if ids and ids[0] < 0:
            raise GraphError("node ids must be nonnegative")
        node_set = frozenset(ids)

        if labels is None:
            label_map = {v: str(v) for v in ids}
        else:
            if isinstance(labels, Mapping):
                missing = [v for v in ids if v not in labels]
                if missing:
                    raise GraphError(f"no label for node {missing[0]}")
                labels = [labels[v] for v in ids]
            labels = [str(x) for x in labels]
            if len(labels) != len(ids):
                raise GraphError(
                    f"expected {len(ids)} labels, got {len(labels)}")
            if len(set(labels)) != len(labels):
                raise GraphError("labels must be unique")
            label_map = dict(zip(ids, labels))

        dir_edges = []
        for e in directed:
            t, h = e
            t, h = int(t), int(h)
            if t not in node_set or h not in node_set:
                raise GraphError(f"directed edge {(t, h)} mentions unknown node")
            dir_edges.append((t, h))
        dir_edges.extend(zip(ids, ids))
        dir_edges = frozenset(dir_edges)

        bi_edges = []
        for e in bidirected:
            a, b = e
            a, b = int(a), int(b)
            if a not in node_set or b not in node_set:
                raise GraphError(f"bidirected edge {(a, b)} mentions unknown node")
            if a == b:
                raise GraphError(f"bidirected self-edge at node {a}")
            bi_edges.append((a, b) if a < b else (b, a))
        bi_edges = frozenset(bi_edges)

        # lists, not sets: both edge sets are already free of duplicates
        children = {v: [] for v in ids}
        parents = {v: [] for v in ids}
        siblings = {v: [] for v in ids}
        for t, h in dir_edges:
            children[t].append(h)
            parents[h].append(t)
        for a, b in bi_edges:
            siblings[a].append(b)
            siblings[b].append(a)

        self._nodes = ids
        self._node_set = node_set
        self._labels = label_map
        self._directed = dir_edges
        self._bidirected = bi_edges
        self._children = {v: frozenset(c) for v, c in children.items()}
        self._parents = {v: frozenset(p) for v, p in parents.items()}
        self._siblings = {v: frozenset(s) for v, s in siblings.items()}
        self._cache = {}

    # -- basic access ------------------------------------------------------

    @property
    def nodes(self) -> tuple[int, ...]:
        return self._nodes

    @property
    def node_set(self) -> frozenset:
        return self._node_set

    @property
    def n(self) -> int:
        return len(self._nodes)

    @property
    def directed(self) -> frozenset:
        """All directed edges, self-loops included."""
        return self._directed

    @property
    def bidirected(self) -> frozenset:
        """Bidirected edges as (min, max) pairs."""
        return self._bidirected

    @property
    def nonloop_directed(self) -> frozenset:
        try:
            return self._cache["nonloop"]
        except KeyError:
            nl = frozenset(e for e in self._directed if e[0] != e[1])
            self._cache["nonloop"] = nl
            return nl

    def _check_node(self, v: int) -> int:
        if v not in self._node_set:
            raise GraphError(f"unknown node {v!r}")
        return v

    def children(self, v: int) -> frozenset:
        return self._children[self._check_node(v)]

    def parents(self, v: int) -> frozenset:
        return self._parents[self._check_node(v)]

    def siblings(self, v: int) -> frozenset:
        return self._siblings[self._check_node(v)]

    def has_directed(self, tail: int, head: int) -> bool:
        return (self._check_node(tail), self._check_node(head)) in self._directed

    def has_bidirected(self, a: int, b: int) -> bool:
        self._check_node(a)
        self._check_node(b)
        return (min(a, b), max(a, b)) in self._bidirected

    def label(self, v: int) -> str:
        return self._labels[self._check_node(v)]

    def labels(self) -> tuple[str, ...]:
        return tuple(self._labels[v] for v in self._nodes)

    def node_by_label(self, label: str) -> int:
        try:
            return self._by_label()[label]
        except KeyError:
            raise GraphError(f"unknown node label {label!r}") from None

    def _by_label(self) -> dict:
        try:
            return self._cache["by_label"]
        except KeyError:
            m = {lab: v for v, lab in self._labels.items()}
            self._cache["by_label"] = m
            return m

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirectedMixedGraph):
            return NotImplemented
        return (self._node_set == other._node_set
                and self._directed == other._directed
                and self._bidirected == other._bidirected)

    def __hash__(self) -> int:
        return hash((self._node_set, self._directed, self._bidirected))

    def __repr__(self) -> str:
        return (f"DirectedMixedGraph(n={self.n}, "
                f"directed={len(self.nonloop_directed)}, "
                f"bidirected={len(self._bidirected)})")

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        """Schema: nodes (labels), directed/bidirected as index pairs.

        Self-loops are never emitted; indices refer to positions in the
        ``nodes`` array, so a round trip through JSON renumbers the nodes
        to ``0..n-1`` while preserving labels and structure.
        """
        pos = {v: i for i, v in enumerate(self._nodes)}
        return {
            "nodes": list(self.labels()),
            "directed": sorted([pos[t], pos[h]] for t, h in self.nonloop_directed),
            "bidirected": sorted([pos[a], pos[b]] for a, b in self._bidirected),
        }

    def to_json(self, fh: Optional[TextIO] = None) -> str:
        text = json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"
        if fh is not None:
            fh.write(text)
        return text

    @classmethod
    def from_json_dict(cls, doc: dict) -> "DirectedMixedGraph":
        try:
            names = list(doc["nodes"])
        except (TypeError, KeyError):
            raise GraphError("graph document must contain a 'nodes' array") from None
        if len(set(map(str, names))) != len(names):
            raise GraphError("node labels must be unique")
        by_name = {str(x): i for i, x in enumerate(names)}

        def resolve(x):
            if isinstance(x, bool):
                raise GraphError(f"bad node reference {x!r}")
            if isinstance(x, int):
                if not 0 <= x < len(names):
                    raise GraphError(f"node index {x} out of range")
                return x
            if str(x) in by_name:
                return by_name[str(x)]
            raise GraphError(f"unknown node reference {x!r}")

        def pairs(key):
            edges = doc.get(key, ())
            if not isinstance(edges, (list, tuple)):
                raise GraphError(f"'{key}' must be an array of node pairs")
            for e in edges:
                if not isinstance(e, (list, tuple)) or len(e) != 2:
                    raise GraphError(f"malformed {key} edge {e!r}: expected a pair of nodes")
            return [(resolve(a), resolve(b)) for a, b in edges]

        directed = pairs("directed")
        bidirected = pairs("bidirected")
        return cls(len(names), directed, bidirected, labels=[str(x) for x in names])

    @classmethod
    def from_json(cls, text: Union[str, TextIO]) -> "DirectedMixedGraph":
        if hasattr(text, "read"):
            text = text.read()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphError(f"invalid JSON: {exc}") from None
        return cls.from_json_dict(doc)

    def to_dot(self, fh: Optional[TextIO] = None) -> str:
        """Graphviz export; bidirected edges use dir=both, loops suppressed."""
        lines = ["digraph G {"]
        for v in self._nodes:
            lines.append(f'  "{self._labels[v]}";')
        for t, h in sorted(self.nonloop_directed):
            lines.append(f'  "{self._labels[t]}" -> "{self._labels[h]}";')
        for a, b in sorted(self._bidirected):
            lines.append(f'  "{self._labels[a]}" -> "{self._labels[b]}" [dir=both];')
        lines.append("}")
        text = "\n".join(lines) + "\n"
        if fh is not None:
            fh.write(text)
        return text

    # -- derived views -----------------------------------------------------

    def _sublabels(self, ids: Sequence[int]) -> list:
        return [self._labels[v] for v in sorted(ids)]


def _check_subset(g: DirectedMixedGraph, vs: Iterable[int]) -> frozenset:
    vs = frozenset(vs)
    unknown = vs - g.node_set
    if unknown:
        # repr order: a non-id need not compare with the others
        raise GraphError(f"unknown nodes {sorted(unknown, key=repr)}")
    return vs


def ancestors(g: DirectedMixedGraph, of: Iterable[int]) -> frozenset:
    """All nodes with a directed path into ``of``.

    Because self-loops are mandatory, the set is reflexive: ``of`` is always
    contained in its own ancestor set.

    >>> g = DirectedMixedGraph(3, directed=[(0, 1), (1, 2)])
    >>> sorted(ancestors(g, {2}))
    [0, 1, 2]
    """
    seeds = _check_subset(g, of)
    seen = set(seeds)
    frontier = deque(seeds)
    while frontier:
        v = frontier.popleft()
        for p in g.parents(v):
            if p not in seen:
                seen.add(p)
                frontier.append(p)
    return frozenset(seen)


def directed_part(g: DirectedMixedGraph) -> DirectedMixedGraph:
    """The same graph with every bidirected edge dropped."""
    return DirectedMixedGraph(g.nodes, g.directed, (), labels=g.labels())


def parent_graph(g: DirectedMixedGraph, observed: Iterable[int]) -> DirectedMixedGraph:
    """Restrict a directed graph to ``observed``, bridging hidden chains.

    The result has an edge ``a -> b`` (both observed) exactly when the input
    has a directed path from ``a`` to ``b`` whose intermediate nodes are all
    unobserved. Requires a pure directed graph (no bidirected edges).
    """
    if g.bidirected:
        raise GraphError("parent_graph is defined for directed graphs only")
    obs = _check_subset(g, observed)
    edges = set()
    for a in sorted(obs):
        # expand through unobserved nodes only
        seen_hidden = set()
        frontier = deque()
        for c in g.children(a):
            if c in obs:
                edges.add((a, c))
            elif c not in seen_hidden:
                seen_hidden.add(c)
                frontier.append(c)
        while frontier:
            v = frontier.popleft()
            for c in g.children(v):
                if c in obs:
                    edges.add((a, c))
                elif c not in seen_hidden:
                    seen_hidden.add(c)
                    frontier.append(c)
    return DirectedMixedGraph(obs, edges, (), labels=g._sublabels(obs))


def latent_projection(g: DirectedMixedGraph, observed: Iterable[int]) -> DirectedMixedGraph:
    """Marginalize a directed mixed graph onto ``observed``.

    For each observed ``o`` one reverse search over hidden parents gives
    R(o): ``o`` together with every hidden node that has a directed path
    into ``o`` through hidden nodes only. Then, for observed ``a`` and ``b``:

    * ``a -> b`` exactly when ``a`` is a parent of some node of R(b);
    * ``a <-> b`` (a != b) exactly when R(a) and R(b) share a node (a
      common hidden source) or a bidirected edge joins a node of R(a) to
      a node of R(b).

    These are the edges left after eliminating the hidden nodes one at a
    time (composing ``x -> l -> y``, ``x <- l -> y`` and ``x <- l <-> y``
    at each), without building the intermediate graphs. The result
    preserves separation statements among the observed nodes (Mogensen &
    Hansen, "Markov equivalence of marginalized local independence
    graphs", Ann. Statist. 2020). Projecting a graph onto its full node set
    returns the graph itself. Graphs are immutable, so a projection is
    cached on ``g`` per observed set.
    """
    obs = _check_subset(g, observed)
    if obs == g.node_set:
        return g
    key = ("latent_projection", obs)
    try:
        return g._cache[key]
    except KeyError:
        pass
    parents, siblings = g._parents, g._siblings
    order = sorted(obs)
    reach = {}
    for o in order:
        r = {o}
        stack = [o]
        while stack:
            for p in parents[stack.pop()]:
                if p not in r and p not in obs:
                    r.add(p)
                    stack.append(p)
        reach[o] = r

    directed = []
    bidirected = []
    for i, a in enumerate(order):
        ra = reach[a]
        directed.extend((p, a) for p in obs.intersection(set().union(*map(parents.get, ra))))
        # nodes of R(a) and their siblings: R(b) meeting this set gives a <-> b
        touch = ra.union(*map(siblings.get, ra))
        bidirected.extend((a, b) for b in order[i + 1:] if not touch.isdisjoint(reach[b]))
    proj = DirectedMixedGraph(obs, directed, bidirected, labels=g._sublabels(obs))
    g._cache[key] = proj
    return proj


def canonical_dg(g: DirectedMixedGraph) -> tuple[DirectedMixedGraph, frozenset]:
    """Replace each bidirected edge by a fresh latent common driver.

    Every ``a <-> b`` becomes ``u -> a``, ``u -> b`` for a new node ``u``
    (which receives the mandatory loop ``u -> u``). Returns the directed
    graph and the original node set as the observed set. Separation
    statements among the original nodes are unchanged.
    """
    next_id = (max(g.nodes) + 1) if g.nodes else 0
    directed = set(g.directed)
    ids = list(g.nodes)
    labels = list(g.labels())
    used = set(labels)
    for k, (a, b) in enumerate(sorted(g.bidirected)):
        u = next_id
        next_id += 1
        ids.append(u)
        lab = f"confounder{k}"
        while lab in used:
            lab += "_"
        used.add(lab)
        labels.append(lab)
        directed.add((u, a))
        directed.add((u, b))
    dg = DirectedMixedGraph(ids, directed, (), labels=labels)
    return dg, g.node_set

