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
Ids are ints or numpy ints; ``True``, ``1.7`` or ``"1"`` is rejected, not
truncated.
Labels are display metadata only and do not participate in equality.
Graphs are immutable and safe to share.

A graph stores its edges in one form, the node masks. Node ``i`` in
sorted id order is the bit ``1 << i``, and each node has an int mask of
its parents, children and siblings; the loop ``v -> v`` puts ``v`` in its
own parents and children. Every algorithm, equality and hashing read the
masks. The edge sets (``directed``, ``bidirected``) are decoded from them
on each read, for the exporters and for callers that want pairs. Builders
inside the package that already hold masks (ingest, projection) hand them
to the graph directly instead of writing edge tuples out.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping
from typing import Optional, TextIO, Union

from ._numbers import integer

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


def _indices(mask: int) -> tuple:
    """The node indices of the bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return tuple(out)


class DirectedMixedGraph:
    """An immutable directed mixed graph over integer node ids.

    Parameters
    ----------
    nodes : int or iterable of int
        Node count ``n`` (ids ``0..n-1``), an int or numpy int, or an
        explicit id collection. Every id, here and in the edges, and the
        count must be an int or numpy int; bools are rejected.
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

    __slots__ = ("_nodes", "_node_set", "_labels", "_bit", "_pa", "_ch", "_sib")

    def __init__(self, nodes, directed=(), bidirected=(), labels=None):
        if isinstance(nodes, Iterable):
            ids = tuple(sorted({integer(v, "node id", GraphError) for v in nodes}))
        else:
            count = integer(nodes, "node count", GraphError)
            if count < 0:
                raise GraphError("node count must be nonnegative")
            ids = tuple(range(count))
        if ids and ids[0] < 0:
            raise GraphError("node ids must be nonnegative")

        if labels is None:
            labels = list(map(str, ids))
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

        # The masks grow as the edges validate, keyed by id in sorted order;
        # duplicate edges OR in the same bit again.
        bit = {v: 1 << i for i, v in enumerate(ids)}
        pa = dict(bit)      # the loop v -> v
        ch = dict(bit)
        sib = dict.fromkeys(ids, 0)
        for t, h in directed:
            t, h = integer(t, "node id", GraphError), integer(h, "node id", GraphError)
            if t not in bit or h not in bit:
                raise GraphError(f"directed edge {(t, h)} mentions unknown node")
            pa[h] |= bit[t]
            ch[t] |= bit[h]
        for a, b in bidirected:
            a, b = integer(a, "node id", GraphError), integer(b, "node id", GraphError)
            if a not in bit or b not in bit:
                raise GraphError(f"bidirected edge {(a, b)} mentions unknown node")
            if a == b:
                raise GraphError(f"bidirected self-edge at node {a}")
            sib[a] |= bit[b]
            sib[b] |= bit[a]
        self._store(ids, labels, tuple(pa.values()), tuple(ch.values()), tuple(sib.values()))

    @classmethod
    def _of_masks(cls, ids: tuple, labels, pa: tuple, ch: tuple,
                  sib: tuple) -> "DirectedMixedGraph":
        """A graph from masks a builder already holds; nothing is checked.

        ``ids`` are sorted nonnegative ints, ``labels`` unique strings
        aligned with them, and ``pa``, ``ch``, ``sib`` the masks the
        constructor would build: loops in ``pa`` and ``ch``, ``ch`` the
        transpose of ``pa``, ``sib`` symmetric with no loops.
        """
        g = object.__new__(cls)
        g._store(ids, labels, pa, ch, sib)
        return g

    def _store(self, ids, labels, pa, ch, sib) -> None:
        """The one place a graph's slots are set."""
        self._nodes = ids
        self._node_set = frozenset(ids)
        self._labels = dict(zip(ids, labels))
        self._bit = {v: 1 << i for i, v in enumerate(ids)}
        self._pa = pa
        self._ch = ch
        self._sib = sib

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
        """All directed edges, self-loops included, decoded from the masks."""
        ids = self._nodes
        return frozenset((ids[i], h) for h, pa in zip(ids, self._pa) for i in _indices(pa))

    @property
    def bidirected(self) -> frozenset:
        """Bidirected edges as (min, max) pairs, decoded from the masks."""
        ids = self._nodes
        return frozenset((a, ids[j]) for i, (a, sib) in enumerate(zip(ids, self._sib))
                         for j in _indices(sib >> i << i))

    @property
    def nonloop_directed(self) -> frozenset:
        ids = self._nodes
        return frozenset((ids[i], h) for j, (h, pa) in enumerate(zip(ids, self._pa))
                         for i in _indices(pa ^ 1 << j))

    def _directed_count(self) -> int:
        """The number of non-loop directed edges, by popcount."""
        return sum(pa.bit_count() for pa in self._pa) - len(self._pa)

    def _bidirected_count(self) -> int:
        """The number of bidirected edges, by popcount."""
        return sum(sib.bit_count() for sib in self._sib) // 2

    def _check_node(self, v: int) -> int:
        if v not in self._node_set:
            raise GraphError(f"unknown node {v!r}")
        return v

    def _ids(self, mask: int) -> frozenset:
        """The ids of the nodes whose bits are set in ``mask``."""
        return frozenset(map(self._nodes.__getitem__, _indices(mask)))

    def _row(self, masks: tuple, v: int) -> int:
        """Node ``v``'s entry of ``masks``."""
        return masks[self._bit[self._check_node(v)].bit_length() - 1]

    def children(self, v: int) -> frozenset:
        return self._ids(self._row(self._ch, v))

    def parents(self, v: int) -> frozenset:
        return self._ids(self._row(self._pa, v))

    def siblings(self, v: int) -> frozenset:
        return self._ids(self._row(self._sib, v))

    def has_directed(self, tail: int, head: int) -> bool:
        t = self._bit[self._check_node(tail)]
        return bool(self._row(self._pa, head) & t)

    def has_bidirected(self, a: int, b: int) -> bool:
        s = self._row(self._sib, a)
        return bool(s & self._bit[self._check_node(b)])

    def label(self, v: int) -> str:
        return self._labels[self._check_node(v)]

    def labels(self) -> tuple[str, ...]:
        return tuple(self._labels[v] for v in self._nodes)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirectedMixedGraph):
            return NotImplemented
        # equal id tuples give every node the same bit, so equal masks are equal edges
        return (self._nodes == other._nodes
                and self._pa == other._pa
                and self._sib == other._sib)

    def __hash__(self) -> int:
        return hash((self._nodes, self._pa, self._sib))

    def __repr__(self) -> str:
        return (f"DirectedMixedGraph(n={self.n}, "
                f"directed={self._directed_count()}, "
                f"bidirected={self._bidirected_count()})")

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
            "bidirected": sorted([pos[a], pos[b]] for a, b in self.bidirected),
        }

    def to_json(self, fh: Optional[TextIO] = None) -> str:
        text = json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"
        if fh is not None:
            fh.write(text)
        return text

    @classmethod
    def from_json_dict(cls, doc: dict) -> "DirectedMixedGraph":
        names = doc.get("nodes") if isinstance(doc, Mapping) else None
        if not isinstance(names, (list, tuple)) or any(
                isinstance(x, bool) or not isinstance(x, (str, int, float)) for x in names):
            raise GraphError("graph document must contain a 'nodes' array of strings or numbers")
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
        for a, b in sorted(self.bidirected):
            lines.append(f'  "{self._labels[a]}" -> "{self._labels[b]}" [dir=both];')
        lines.append("}")
        text = "\n".join(lines) + "\n"
        if fh is not None:
            fh.write(text)
        return text


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
    pa = g._pa
    seen = layer = sum(map(g._bit.__getitem__, seeds))
    # one layer at a time: the OR of the layer's parent masks, less what is seen
    while layer:
        up = 0
        for i in _indices(layer):
            up |= pa[i]
        layer = up & ~seen
        seen |= layer
    return g._ids(seen)


def _transpose(masks) -> tuple:
    """Bit ``j`` of entry ``i`` is bit ``i`` of entry ``j``: children from parents."""
    out = [0] * len(masks)
    for j, mask in enumerate(masks):
        b = 1 << j
        for i in _indices(mask):
            out[i] |= b
    return tuple(out)


def directed_part(g: DirectedMixedGraph) -> DirectedMixedGraph:
    """The same graph with every bidirected edge dropped."""
    return DirectedMixedGraph._of_masks(g.nodes, g.labels(), g._pa, g._ch, (0,) * g.n)


def parent_graph(g: DirectedMixedGraph, observed: Iterable[int]) -> DirectedMixedGraph:
    """Restrict a directed graph to ``observed``, bridging hidden chains.

    The result has an edge ``a -> b`` (both observed) exactly when the input
    has a directed path from ``a`` to ``b`` whose intermediate nodes are all
    unobserved: the directed part of the latent projection, which is how it
    is computed. Requires a pure directed graph (no bidirected edges).
    """
    if g.bidirected:
        raise GraphError("parent_graph is defined for directed graphs only")
    return directed_part(latent_projection(g, observed))


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
    returns the graph itself; any other call builds a new graph.

    The searches run on the graph's node masks, a layer at a time: R(o)
    is one int, and each layer of the search ORs up the parent masks of
    its nodes, which gives the next layer (its hidden nodes not yet in
    R(o)) and the parents of R(o), and their sibling masks, which give the
    nodes that a bidirected edge joins to R(o). The result's masks are
    built from these ints directly, renumbered to the observed nodes; no
    edge list is written out.
    """
    obs = _check_subset(g, observed)
    if obs == g.node_set:
        return g
    bit, pa, sib = g._bit, g._pa, g._sib
    # the projection's ids, ints as the constructor makes them
    order = tuple(sorted(integer(v, "node id", GraphError) for v in obs))
    obs_mask = sum(map(bit.__getitem__, order))
    # old bit -> the projection's bit, for masks over the observed nodes
    new_bit = {bit[o]: 1 << k for k, o in enumerate(order)}
    reach = []
    touches = []
    parent_masks = []
    for o in order:
        r = layer = bit[o]
        parents = touch = 0
        while layer:
            up = 0
            while layer:
                low = layer & -layer
                layer ^= low
                i = low.bit_length() - 1
                up |= pa[i]
                touch |= sib[i]
            parents |= up
            layer = up & ~(obs_mask | r)
            r |= layer
        parents &= obs_mask
        p = 0
        while parents:
            low = parents & -parents
            parents ^= low
            p |= new_bit[low]
        parent_masks.append(p)
        reach.append(r)
        # nodes of R(o) and their siblings: R(b) meeting this set gives o <-> b
        touches.append(touch | r)
    sibling_masks = [0] * len(order)
    for i, t in enumerate(touches):
        for j in range(i + 1, len(order)):
            if t & reach[j]:
                sibling_masks[i] |= 1 << j
                sibling_masks[j] |= 1 << i
    parent_masks = tuple(parent_masks)
    return DirectedMixedGraph._of_masks(
        order, [g._labels[v] for v in order], parent_masks,
        _transpose(parent_masks), tuple(sibling_masks))


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

