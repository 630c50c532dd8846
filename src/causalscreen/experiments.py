"""Benchmark harness: random graph corpora, recovery metrics, sweep runs.

A benchmark replicate draws a random directed mixed graph, hides an
optional fraction of its nodes, wraps the truth in a graphical oracle, and
runs each screening algorithm against a fresh oracle. The scoreboard is
the number of excess edges relative to the true parent structure over the
observed nodes (the directed part of the latent projection) plus the
oracle-call count. A sound run never misses a true edge; if it does, the
metrics layer raises instead of quietly absorbing the miss into a score.

Everything here is deterministic given the config: replicate i of a corpus
draws from a PCG64 stream keyed by (seed, i), the optional observed-subset
choice from (seed, i, 1), and CSV writers emit rows in replicate order with
a fixed float format, so reruns are byte-identical. Runtime columns are 0
unless timing is explicitly requested, keeping timed noise out of the
deterministic output by default.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from ._numbers import integer, reals
from .graphs import DirectedMixedGraph, GraphError, directed_part, latent_projection
from .screening import Algorithm, run
from .separation import GraphicalOracle

__all__ = [
    "CorpusConfig",
    "MetricsRow",
    "SoundnessViolation",
    "random_dmg",
    "excess_edges",
    "spearman",
    "topk_overlap",
    "indegrees",
    "outdegrees",
    "bench_run",
    "write_metrics_csv",
    "aggregate",
    "METRICS_HEADER",
]

METRICS_HEADER = "algo,replicate,n,p_dir,p_bi,true_directed,true_bidirected,excess,calls,ms"


class SoundnessViolation(RuntimeError):
    """An output graph is missing an edge of the true parent structure."""


@dataclass(frozen=True)
class CorpusConfig:
    """Random-corpus parameters: size, densities, replicate count, seed."""
    n: int
    p_dir: float
    p_bi: float
    count: int
    seed: int

    def __post_init__(self):
        for name in ("n", "count", "seed"):
            integer(getattr(self, name), name, GraphError)
        if self.n < 1:
            raise ValueError("corpus graphs need at least one node")
        for name in ("p_dir", "p_bi"):
            p = getattr(self, name)
            if not 0.0 <= reals((p,), name)[0] <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p!r}")
        if self.count < 0:
            raise ValueError("replicate count must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class MetricsRow:
    """One algorithm run on one replicate, in metrics-CSV column order."""
    algo: str
    replicate: int
    n: int
    p_dir: float
    p_bi: float
    true_directed: int
    true_bidirected: int
    excess: int
    calls: int
    ms: float

    def to_csv_line(self) -> str:
        return (
            f"{self.algo},{self.replicate},{self.n},{self.p_dir!r},{self.p_bi!r},"
            f"{self.true_directed},{self.true_bidirected},{self.excess},"
            f"{self.calls},{self.ms!r}"
        )


def random_dmg(cfg: CorpusConfig, i: int) -> DirectedMixedGraph:
    """Replicate i of the corpus described by cfg.

    Each ordered non-self pair gets a directed edge with probability
    p_dir, each unordered pair a bidirected edge with probability p_bi,
    loops always included. One PCG64 stream keyed by (seed, i) is consumed
    as one block of uniforms for the directed pairs in lexicographic
    order, then one block for the unordered pairs in lexicographic order.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, i])))
    n = cfg.n
    dir_pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    bi_pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    dir_draws = rng.random(len(dir_pairs))
    bi_draws = rng.random(len(bi_pairs))
    directed = [p for p, u in zip(dir_pairs, dir_draws) if u < cfg.p_dir]
    bidirected = [p for p, u in zip(bi_pairs, bi_draws) if u < cfg.p_bi]
    return DirectedMixedGraph(n, directed, bidirected)


def excess_edges(output: DirectedMixedGraph, truth_parent: DirectedMixedGraph) -> int:
    """Count non-loop directed edges of ``output`` absent from the truth.

    Missing truth edges are a contract breach, not a metric: any sound
    screening run returns a supergraph, so a miss raises
    :class:`SoundnessViolation` instead of being scored.
    """
    if output.node_set != truth_parent.node_set:
        raise GraphError("output and truth are over different node sets")
    # equal node sets give each node the same bit in both graphs
    pairs = tuple(zip(output._pa, truth_parent._pa))
    if any(t & ~o for o, t in pairs):
        missing = truth_parent.nonloop_directed - output.nonloop_directed
        raise SoundnessViolation(
            f"output lacks {len(missing)} true edge(s): {sorted(missing)}"
        )
    return sum((o & ~t).bit_count() for o, t in pairs)


def _average_ranks(xs: Sequence[float]) -> np.ndarray:
    arr = np.asarray(xs, dtype=float)
    # Runs of equal values in a stable sort: a run of c values from 0-based
    # position s ranks s + (c + 1) / 2. NaN != NaN, so each NaN is a run of
    # its own, and NaNs keep their input order, which np.unique's inverse
    # does not promise.
    order = np.argsort(arr, kind="stable")
    ordered = arr[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    counts = np.diff(np.r_[starts, len(arr)])
    ranks = np.empty(len(arr))
    ranks[order] = np.repeat(starts + (counts + 1) / 2, counts)
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Rank correlation with average ranks for ties.

    Returns nan when either side has zero rank variance (the coefficient
    is undefined there).
    """
    if len(xs) != len(ys):
        raise ValueError("sequences must have equal length")
    if len(xs) < 2:
        raise ValueError("need at least two observations")
    rx = _average_ranks(xs)
    ry = _average_ranks(ys)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    vx = float(dx @ dx)
    vy = float(dy @ dy)
    if vx == 0.0 or vy == 0.0:
        return math.nan
    return float(dx @ dy) / math.sqrt(vx * vy)


def _top_k(deg: Mapping[int, float], k: int) -> set:
    ordered = sorted(deg, key=lambda v: (-deg[v], v))
    return set(ordered[:k])


def topk_overlap(truth_deg: Mapping[int, float], out_deg: Mapping[int, float],
                 k: int) -> int:
    """Overlap of the two top-k node sets, ties broken by node index."""
    if set(truth_deg) != set(out_deg):
        raise ValueError("degree maps must share a key set")
    if not 0 <= k <= len(truth_deg):
        raise ValueError(f"k={k} not in [0, {len(truth_deg)}]")
    return len(_top_k(truth_deg, k) & _top_k(out_deg, k))


def indegrees(g: DirectedMixedGraph) -> dict:
    """Non-loop directed in-degree per node."""
    return {v: pa.bit_count() - 1 for v, pa in zip(g.nodes, g._pa)}


def outdegrees(g: DirectedMixedGraph) -> dict:
    """Non-loop directed out-degree per node."""
    return {v: ch.bit_count() - 1 for v, ch in zip(g.nodes, g._ch)}


def _observed_subset(cfg: CorpusConfig, i: int, latent_fraction: float) -> tuple:
    if latent_fraction == 0.0:
        return tuple(range(cfg.n))
    hidden = int(round(latent_fraction * cfg.n))
    if hidden >= cfg.n - 1:
        raise ValueError("latent fraction leaves fewer than two observed nodes")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, i, 1])))
    latent = set(rng.choice(cfg.n, size=hidden, replace=False).tolist())
    return tuple(v for v in range(cfg.n) if v not in latent)


def _replicate_rows(cfg: CorpusConfig, i: int, algorithms: Sequence[Algorithm],
                    latent_fraction: float, timing: bool) -> list:
    truth = random_dmg(cfg, i)
    observed = _observed_subset(cfg, i, latent_fraction)
    projection = latent_projection(truth, observed)
    truth_parent = directed_part(projection)
    true_dir = truth._directed_count()
    true_bi = truth._bidirected_count()
    rows = []
    for algo in algorithms:
        oracle = GraphicalOracle(projection)
        t0 = time.perf_counter()
        result = run(algo, oracle)
        ms = (time.perf_counter() - t0) * 1000.0 if timing else 0.0
        rows.append(MetricsRow(
            algo=algo.value,
            replicate=i,
            n=cfg.n,
            p_dir=cfg.p_dir,
            p_bi=cfg.p_bi,
            true_directed=true_dir,
            true_bidirected=true_bi,
            excess=excess_edges(result.graph, truth_parent),
            calls=result.oracle_calls,
            ms=ms,
        ))
    return rows


def bench_run(cfg: CorpusConfig, algorithms: Iterable, *,
              latent_fraction: float = 0.0, threads: int = 1,
              timing: bool = False) -> list:
    """Run every algorithm on every replicate of the corpus.

    Returns rows grouped by replicate (in index order) and, within a
    replicate, in the given algorithm order. Replicates may execute on a
    thread pool; results are folded back in index order either way, so the
    schedule cannot leak into the output.
    """
    algos = [Algorithm(a) for a in algorithms]
    if not algos:
        raise ValueError("need at least one algorithm")
    if not 0.0 <= latent_fraction < 1.0:
        raise ValueError("latent fraction must lie in [0, 1)")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    indices = range(cfg.count)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_rep = list(pool.map(
                lambda i: _replicate_rows(cfg, i, algos, latent_fraction, timing),
                indices,
            ))
    else:
        per_rep = [_replicate_rows(cfg, i, algos, latent_fraction, timing)
                   for i in indices]
    return [row for rows in per_rep for row in rows]


def write_metrics_csv(rows: Iterable[MetricsRow], fh: IO[str]) -> None:
    fh.write(METRICS_HEADER + "\n")
    for row in rows:
        fh.write(row.to_csv_line() + "\n")


def aggregate(rows: Iterable[MetricsRow]) -> dict:
    """Per-algorithm means: {"algo": {"rows", "mean_excess", "mean_calls"}}."""
    buckets: dict = {}
    for row in rows:
        buckets.setdefault(row.algo, []).append(row)
    out = {}
    for algo in sorted(buckets):
        group = buckets[algo]
        out[algo] = {
            "rows": len(group),
            "mean_excess": sum(r.excess for r in group) / len(group),
            "mean_calls": sum(r.calls for r in group) / len(group),
        }
    return out
