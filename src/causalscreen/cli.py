"""Command-line interface.

Subcommands: ``learn`` (screen a graph through the separation oracle),
``simulate`` (sample a Hawkes trajectory), ``bench`` (random-graph
sweeps), ``connectome`` (ingest/subsample/screen a synapse table), and
``musep`` (one-off separation query). Global flags ``--seed``,
``--threads``, and ``--format csv|json`` are accepted before or after the
subcommand name.

All writers are deterministic: JSON is emitted with sorted keys, CSV rows
in a fixed order, floats through repr, no timestamps. Rerunning a command
with identical flags and seed reproduces its output files byte for byte.
Timing columns stay zero unless ``--timing`` asks for real measurements.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from typing import Optional, Sequence

from .connectome import ConnectomeSpec, run_connectome
from .experiments import (
    CorpusConfig,
    SoundnessViolation,
    aggregate,
    bench_run,
    write_metrics_csv,
)
from .graphs import DirectedMixedGraph, GraphError
from .hawkes import HawkesModel, Intervention, SimulationError, simulate, simulate_intervened
from .screening import Algorithm, run
from .separation import GraphicalOracle

__all__ = ["main"]

ALGO_CHOICES = [a.value for a in Algorithm]


@contextmanager
def _out(path: Optional[str]):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _dump_json(doc, fh) -> None:
    json.dump(doc, fh, indent=2, sort_keys=True)
    fh.write("\n")


def _split_labels(raw: str) -> list:
    if raw.startswith("@"):
        with open(raw[1:]) as fh:
            raw = fh.read()
        return [tok for tok in raw.replace(",", " ").split() if tok]
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


def _resolve_nodes(g: DirectedMixedGraph, tokens: Sequence[str]) -> list:
    out = []
    for tok in tokens:
        try:
            out.append(g.node_by_label(tok))
        except GraphError:
            if tok.isdigit() and int(tok) in g.node_set:
                out.append(int(tok))
            else:
                raise GraphError(f"unknown node {tok!r}") from None
    return out


def _load_graph(path: str) -> DirectedMixedGraph:
    with open(path) as fh:
        return DirectedMixedGraph.from_json(fh)


# -- learn -------------------------------------------------------------------


def _cmd_learn(ns) -> int:
    truth = _load_graph(ns.graph)
    if ns.observed is None:
        observed = truth.nodes
    else:
        observed = sorted(set(_resolve_nodes(truth, _split_labels(ns.observed))))
    oracle = GraphicalOracle(truth, observed)
    result = run(ns.algo, oracle, order=ns.order, seed=ns.seed)

    learned = result.graph
    doc = {
        "algo": result.algorithm.value,
        "observed": [truth.label(v) for v in observed],
        "oracle_calls": result.oracle_calls,
        "graph": learned.to_json_dict(),
    }
    if ns.emit_certificates:
        doc["certificates"] = {
            f"{learned.label(a)}->{learned.label(b)}": sorted(learned.label(c) for c in cert)
            for (a, b), cert in result.certificates.items()
        }
    if ns.emit_trace:
        doc["trace"] = [
            {"edge": [learned.label(a), learned.label(b)],
             "action": entry.action, "stage": entry.stage}
            for entry in result.trace
            for (a, b) in (entry.edge,)
        ]
    with _out(ns.out_json) as fh:
        _dump_json(doc, fh)
    if ns.out_dot:
        with open(ns.out_dot, "w") as fh:
            learned.to_dot(fh)
    return 0


# -- simulate ----------------------------------------------------------------


def _parse_intervention(raw: str) -> Intervention:
    node_s, _, times_s = raw.partition("@")
    try:
        node = int(node_s)
    except ValueError:
        raise ValueError(f"intervention target must be a node index: {raw!r}") from None
    times = tuple(float(t) for t in times_s.split(",") if t.strip()) if times_s else ()
    return Intervention(node, times)


def _cmd_simulate(ns) -> int:
    with open(ns.model) as fh:
        model = HawkesModel.from_json(fh)
    interventions = [_parse_intervention(raw) for raw in ns.intervene]
    if interventions:
        history = simulate_intervened(model, interventions, ns.seed,
                                      force=ns.force, max_events=ns.max_events)
    else:
        history = simulate(model, ns.seed, force=ns.force, max_events=ns.max_events)
    with _out(ns.out) as fh:
        if ns.format == "json":
            _dump_json({"T": model.horizon,
                        "times": [list(row) for row in history.times]}, fh)
        else:
            history.to_csv(fh)
    return 0


# -- bench -------------------------------------------------------------------


def _floats(raw: str) -> list:
    return [float(tok) for tok in raw.split(",") if tok.strip()]


def _cmd_bench(ns) -> int:
    algos = [Algorithm(tok) for tok in ns.algos.split(",") if tok.strip()]
    rows = []
    for p_dir in _floats(ns.p_dir):
        for p_bi in _floats(ns.p_bi):
            cfg = CorpusConfig(n=ns.n, p_dir=p_dir, p_bi=p_bi,
                               count=ns.count, seed=ns.seed)
            rows.extend(bench_run(cfg, algos, latent_fraction=ns.latent_fraction,
                                  threads=ns.threads, timing=ns.timing))
    with _out(ns.out) as fh:
        if ns.format == "json":
            _dump_json({"rows": [row.__dict__ for row in rows],
                        "aggregate": aggregate(rows)}, fh)
        else:
            write_metrics_csv(rows, fh)
    return 0


# -- connectome --------------------------------------------------------------

CONNECTOME_RESULT_HEADER = ("algo,n_observed,true_edges,excess,calls,"
                            "spearman_in,spearman_out,topk_in,topk_out,k")


def _cmd_connectome(ns) -> int:
    spec = ConnectomeSpec(threshold=ns.threshold, sample=ns.sample,
                          weight_exponent=ns.weight_exponent)
    with open(ns.file) as fh:
        result = run_connectome(fh, spec, ns.algo, ns.seed, topk=ns.topk)
    with _out(ns.out) as fh:
        if ns.format == "json":
            _dump_json(result.to_json_dict(), fh)
        else:
            fh.write(CONNECTOME_RESULT_HEADER + "\n")
            fh.write(
                f"{result.algorithm},{len(result.observed)},{result.true_edges},"
                f"{result.excess},{result.calls},{result.spearman_in!r},"
                f"{result.spearman_out!r},{result.topk_in},{result.topk_out},"
                f"{result.k}\n"
            )
    return 0


# -- musep -------------------------------------------------------------------


def _cmd_musep(ns) -> int:
    g = _load_graph(ns.graph)
    sources = _resolve_nodes(g, _split_labels(ns.sources))
    targets = _resolve_nodes(g, _split_labels(ns.targets))
    given = _resolve_nodes(g, _split_labels(ns.given)) if ns.given else []
    oracle = GraphicalOracle(g, keep_log=True)
    independent = oracle.query(sources, targets, given)
    with _out(ns.out) as fh:
        if ns.format == "json":
            _dump_json({
                "sources": sorted(g.label(v) for v in sources),
                "targets": sorted(g.label(v) for v in targets),
                "given": sorted(g.label(v) for v in given),
                "independent": independent,
            }, fh)
        else:
            oracle.export_log_csv(fh)
    return 0


# -- parser ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="base RNG seed (default 0)")
    common.add_argument("--threads", type=int, default=argparse.SUPPRESS,
                        help="worker threads for replicate sweeps (default 1)")
    common.add_argument("--format", choices=["csv", "json"],
                        default=argparse.SUPPRESS,
                        help="output format where applicable (default csv)")

    parser = argparse.ArgumentParser(
        prog="causalscreen",
        description="Constraint-based causal screening for event-process networks.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn", parents=[common],
                       help="screen a graph through its separation oracle")
    p.add_argument("--graph", required=True, help="truth graph JSON file")
    p.add_argument("--observed",
                   help="comma-separated node labels, or @file (default: all)")
    p.add_argument("--algo", choices=ALGO_CHOICES, default="cs")
    p.add_argument("--order", choices=["lex", "random"], default="lex",
                   help="pair iteration order (random is shuffled by --seed)")
    p.add_argument("--out-json", help="write the result JSON here (default stdout)")
    p.add_argument("--out-dot", help="also write the learned graph as DOT")
    p.add_argument("--emit-certificates", action="store_true",
                   help="include separating sets for removed edges")
    p.add_argument("--emit-trace", action="store_true",
                   help="include the full decision trace")
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("simulate", parents=[common],
                       help="sample a Hawkes trajectory")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--intervene", action="append", default=[],
                   metavar="NODE@T1,T2,...",
                   help="force this node's events (repeatable; bare NODE = never fires)")
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--force", action="store_true",
                   help="simulate even if the stationarity check fails")
    p.add_argument("--max-events", type=int, default=10_000_000)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bench", parents=[common],
                       help="random-graph benchmark sweep")
    p.add_argument("--n", type=int, required=True, help="nodes per graph")
    p.add_argument("--p-dir", required=True,
                   help="comma-separated directed-edge probabilities")
    p.add_argument("--p-bi", default="0",
                   help="comma-separated bidirected-edge probabilities")
    p.add_argument("--count", type=int, default=100, help="replicates per density")
    p.add_argument("--algos", default="cs,csapc,csap",
                   help="comma-separated algorithms to compare")
    p.add_argument("--latent-fraction", type=float, default=0.0,
                   help="fraction of nodes hidden from the oracle")
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--timing", action="store_true",
                   help="measure per-run wall time (breaks byte determinism)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("connectome", parents=[common],
                       help="ingest a synapse table, subsample, screen, score")
    p.add_argument("--file", required=True, help="synapse CSV (pre,post,count,type)")
    p.add_argument("--threshold", type=int, default=4,
                   help="minimum synapse count for chemical edges (strict >)")
    p.add_argument("--sample", type=int, default=75, help="observed subsample size")
    p.add_argument("--weight-exponent", type=float, default=1.0,
                   help="degree-weighting exponent for subsampling")
    p.add_argument("--algo", choices=ALGO_CHOICES, default="cs")
    p.add_argument("--topk", type=int, default=15, help="hub-overlap cutoff")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_connectome)

    p = sub.add_parser("musep", parents=[common],
                       help="one-off separation query against a graph")
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("-A", "--sources", required=True,
                   help="comma-separated source labels")
    p.add_argument("-B", "--targets", required=True,
                   help="comma-separated target labels")
    p.add_argument("-C", "--given", help="comma-separated conditioning labels")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_musep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    for attr, default in (("seed", 0), ("threads", 1), ("format", "csv")):
        if not hasattr(ns, attr):
            setattr(ns, attr, default)
    try:
        return ns.func(ns)
    except (GraphError, ValueError, OSError, SimulationError, SoundnessViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
