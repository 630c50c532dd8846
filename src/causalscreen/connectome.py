"""Connectome ingestion, weighted subsampling, and the evaluation pipeline.

The input is a CSV of synapse records, `pre,post,count,type` with type
"chem" or "gap". Chemical synapses become directed edges pre -> post when
their merged count clears a threshold; gap junctions are non-directional
couplings and become bidirected edges regardless of count. The resulting
directed mixed graph is the assumed ground truth.

Evaluation hides part of the network: a weighted subsample of the neurons
is declared observed, the truth is projected once onto the sample (its
latent projection), and a screening algorithm runs against a separation
oracle on that projection. The learned graph is scored against the true
parent structure over the sample, the directed part of the same
projection: excess edges, degree rank correlations, and top-k hub overlap.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import IO

import numpy as np

from .graphs import DirectedMixedGraph, GraphError, directed_part, latent_projection
# Not called here; importable from this module because perfbench/tracing.py
# patches them by name.
from .graphs import canonical_dg, parent_graph
from .screening import Algorithm, run
from .separation import GraphicalOracle
from .experiments import excess_edges, indegrees, outdegrees, spearman, topk_overlap

__all__ = [
    "ConnectomeSpec",
    "ConnectomeResult",
    "ingest_connectome",
    "degree_weights",
    "subsample",
    "run_connectome",
]

CONNECTOME_HEADER = "pre,post,count,type"
# The last field of a well-formed row, with or without its "\n", to its type.
_KINDS = {"chem": "chem", "chem\n": "chem", "gap": "gap", "gap\n": "gap"}


@dataclass(frozen=True)
class ConnectomeSpec:
    """Ingestion threshold plus subsampling size and weighting exponent."""
    threshold: int = 4
    sample: int = 75
    weight_exponent: float = 1.0

    def __post_init__(self):
        if self.threshold < 0:
            raise ValueError("threshold must be >= 0")
        if self.sample < 1:
            raise ValueError("sample size must be >= 1")
        if not math.isfinite(self.weight_exponent):
            raise ValueError(f"weight exponent must be finite, got {self.weight_exponent}")


@dataclass(frozen=True)
class ConnectomeResult:
    """Scores of one screening run on one subsample."""
    algorithm: str
    observed: tuple          # neuron labels, sorted
    true_edges: int          # non-loop edges of the true parent graph on O
    excess: int
    calls: int
    spearman_in: float
    spearman_out: float
    topk_in: int
    topk_out: int
    k: int
    truth_parent: DirectedMixedGraph
    learned: DirectedMixedGraph

    def to_json_dict(self) -> dict:
        def num(x: float):
            return None if math.isnan(x) else x
        return {
            "algo": self.algorithm,
            "observed": list(self.observed),
            "n_observed": len(self.observed),
            "true_edges": self.true_edges,
            "excess": self.excess,
            "calls": self.calls,
            "spearman_in": num(self.spearman_in),
            "spearman_out": num(self.spearman_out),
            "topk_in": self.topk_in,
            "topk_out": self.topk_out,
            "k": self.k,
        }


def _parse_row(lineno: int, line: str) -> tuple:
    parts = [p.strip() for p in line.split(",")]
    if len(parts) != 4:
        raise GraphError(f"line {lineno}: expected 4 fields, got {len(parts)}: {line!r}")
    pre, post, count_s, kind = parts
    if not pre or not post:
        raise GraphError(f"line {lineno}: empty node name: {line!r}")
    try:
        count = int(count_s)
    except ValueError:
        raise GraphError(f"line {lineno}: non-numeric count {count_s!r}") from None
    if count < 1:
        raise GraphError(f"line {lineno}: count must be >= 1, got {count}")
    if kind not in ("chem", "gap"):
        raise GraphError(f"line {lineno}: type must be chem or gap, got {kind!r}")
    return pre, post, count, kind


def ingest_connectome(fh: IO[str], threshold: int = 4) -> DirectedMixedGraph:
    """Build the ground-truth graph from a synapse CSV.

    Duplicate records for the same connection are merged by maximum
    count. Chemical connections survive only with merged count strictly
    above the threshold; gap junctions are kept regardless of count, and a
    gap record joining a neuron to itself is skipped (a node cannot
    confound itself; its loop is already mandatory). Nodes are every
    neuron named in any record, threshold notwithstanding, sorted by name.
    """
    header = fh.readline().strip()
    if header != CONNECTOME_HEADER:
        raise GraphError(f"expected header {CONNECTOME_HEADER!r}, got {header!r}")
    chem: dict = {}
    gap: set = set()
    names: set = set()
    for lineno, raw in enumerate(fh, start=2):
        # A well-formed row is read inline. Anything else (padding, a \r\n
        # ending, a blank or bad row) goes to _parse_row, which strips each
        # field and names the row's fault, so both routes accept the same
        # tables with the same values.
        fields = raw.split(",")
        count = 0
        if len(fields) == 4:
            pre, post, count_s, kind = fields
            kind = _KINDS.get(kind)
            if (kind and pre and post and pre.strip() == pre and post.strip() == post
                    and count_s.isdecimal()):
                count = int(count_s)
        if count < 1:
            line = raw.strip()
            if not line:
                continue
            pre, post, count, kind = _parse_row(lineno, line)
        names.add(pre)
        names.add(post)
        if kind == "chem":
            key = (pre, post)
            if count > chem.get(key, 0):
                chem[key] = count
        elif pre != post:
            gap.add((pre, post) if pre < post else (post, pre))
    if not names:
        raise GraphError("connectome file has no records")
    labels = sorted(names)
    index = {name: i for i, name in enumerate(labels)}
    directed = [(index[a], index[b]) for (a, b), c in chem.items() if c > threshold]
    bidirected = [(index[a], index[b]) for a, b in sorted(gap)]
    return DirectedMixedGraph(len(labels), directed, bidirected, labels=labels)


def degree_weights(g: DirectedMixedGraph, exponent: float = 1.0) -> dict:
    """Sampling weight (1 + degree)^exponent per node.

    Degree counts non-loop directed edges in both directions plus
    bidirected incidences: a node's children, parents and siblings, less
    its own loop on each side. The exponent must be finite and small
    enough that the weights and their total stay finite.
    """
    if not math.isfinite(exponent):
        raise ValueError(f"weight exponent must be finite, got {exponent}")
    deg = {v: len(g.children(v)) + len(g.parents(v)) - 2 + len(g.siblings(v))
           for v in g.nodes}
    overflow = f"weight exponent {exponent} overflows the degree weights"
    try:
        weights = {v: (1.0 + d) ** exponent for v, d in deg.items()}
    except OverflowError:
        raise ValueError(overflow) from None
    if not math.isfinite(sum(weights.values())):
        raise ValueError(overflow)
    return weights


def subsample(g: DirectedMixedGraph, m: int, seed: int, *,
              weight_exponent: float = 1.0) -> tuple:
    """Draw m distinct nodes, degree-weighted, without replacement.

    Nodes are drawn one at a time: each draw walks the cumulative weights
    of the remaining nodes in index order against one uniform from a
    PCG64 stream, so the result is a pure function of (graph, m, seed,
    exponent). Exponent 0 gives uniform sampling.
    """
    if not 1 <= m <= g.n:
        raise GraphError(f"sample size {m} not in [1, {g.n}]")
    weights = degree_weights(g, weight_exponent)
    rng = np.random.Generator(np.random.PCG64(seed))
    remaining = list(g.nodes)
    remaining_w = [weights[v] for v in remaining]
    # A weight underflows to zero for a very negative exponent. A draw over
    # all-zero weights would take the last remaining node whatever the seed.
    if sum(w > 0.0 for w in remaining_w) < m:
        raise ValueError(f"weight exponent {weight_exponent} leaves fewer than "
                         f"{m} nodes with a nonzero weight")
    chosen = []
    for _ in range(m):
        x = rng.random() * sum(remaining_w)
        # the first node whose running sum exceeds x; accumulate makes the
        # same left-to-right additions as a running total
        pick = min(bisect_right(list(accumulate(remaining_w)), x), len(remaining) - 1)
        chosen.append(remaining.pop(pick))
        del remaining_w[pick]
    return tuple(sorted(chosen))


def run_connectome(fh: IO[str], spec: ConnectomeSpec, algorithm, seed: int, *,
                   topk: int = 15) -> ConnectomeResult:
    """Ingest, subsample, screen, and score one connectome run.

    The oracle answers separation queries on the latent projection of the
    ingested graph onto the sample; the truth the output is scored
    against is the directed part of that projection, the parent graph
    over the sample. Both share the one projection cached on the ingested
    graph. k is clamped to the sample size.
    """
    algorithm = Algorithm(algorithm)
    if topk < 0:
        raise ValueError(f"topk must be >= 0, got {topk}")
    truth_dmg = ingest_connectome(fh, spec.threshold)
    sample = subsample(truth_dmg, min(spec.sample, truth_dmg.n), seed,
                       weight_exponent=spec.weight_exponent)
    truth_parent = directed_part(latent_projection(truth_dmg, sample))
    oracle = GraphicalOracle(truth_dmg, sample)
    result = run(algorithm, oracle)

    k = min(topk, len(sample))
    sp_in = _safe_spearman(indegrees(truth_parent), indegrees(result.graph))
    sp_out = _safe_spearman(outdegrees(truth_parent), outdegrees(result.graph))
    return ConnectomeResult(
        algorithm=algorithm.value,
        observed=tuple(truth_dmg.label(v) for v in sample),
        true_edges=len(truth_parent.nonloop_directed),
        excess=excess_edges(result.graph, truth_parent),
        calls=result.oracle_calls,
        spearman_in=sp_in,
        spearman_out=sp_out,
        topk_in=topk_overlap(indegrees(truth_parent), indegrees(result.graph), k),
        topk_out=topk_overlap(outdegrees(truth_parent), outdegrees(result.graph), k),
        k=k,
        truth_parent=truth_parent,
        learned=result.graph,
    )


def _safe_spearman(truth_deg: dict, out_deg: dict) -> float:
    if len(truth_deg) < 2:
        return math.nan
    keys = sorted(truth_deg)
    return spearman([truth_deg[v] for v in keys], [out_deg[v] for v in keys])
