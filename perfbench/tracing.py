"""Per-layer tracing for the benchmark's traced run.

Spans are recorded from outside the program: the tracer replaces module
attributes through which one package module calls another (for example
``separation.ancestors`` or ``connectome.run``) by timing wrappers, only
for the duration of a traced pass, and restores them afterwards. Nothing
under ``src/`` knows about it.

Screening runs are split into the public step functions (``trek_step``,
``ancestry_propagation*``, ``parent_step``; ``run`` itself for CA), and
each receives a :class:`TimedOracle` that forwards to the real oracle and
times every query. A span's self time is its duration minus the time its
child spans cover, so ``screening.self_s`` is stage time outside the
oracle and ``separation.mu_separated.self_s`` is search time outside
``ancestors``.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from contextlib import ExitStack
from time import perf_counter
from unittest import mock

from causalscreen import connectome, experiments, graphs, hawkes, screening, separation
from causalscreen.screening import Algorithm, LearnResult

import workloads

# (module, attribute, span name): cross-module call sites wrapped in the
# traced pass. The benchmark's own calls into hawkes go through ``workloads``.
WRAPPED = (
    (graphs, "ancestors", "graphs.ancestors"),
    (separation, "ancestors", "graphs.ancestors"),
    (separation, "mu_separated", "separation.mu_separated"),
    (experiments, "latent_projection", "graphs.latent_projection"),
    (experiments, "random_dmg", "experiments.random_dmg"),
    (experiments, "excess_edges", "experiments.excess_edges"),
    (connectome, "excess_edges", "experiments.excess_edges"),
    (connectome, "canonical_dg", "graphs.canonical_dg"),
    (connectome, "parent_graph", "graphs.parent_graph"),
    (connectome, "ingest_connectome", "connectome.ingest_connectome"),
    (connectome, "subsample", "connectome.subsample"),
    (hawkes, "stationarity_check", "hawkes.stationarity_check"),
    (hawkes, "compensator", "hawkes.compensator"),
    (workloads, "simulate", "hawkes.simulate"),
    (workloads, "simulate_intervened", "hawkes.simulate_intervened"),
)

# Spans whose result is an EventHistory; its events are counted.
COUNT_EVENTS = ("hawkes.simulate", "hawkes.simulate_intervened")
STAGES = ("trek", "ancestry", "parent", "ca")
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0)
TAIL_SAMPLES = 10


class Tracer:
    """Aggregated spans of one pass: calls, total and self seconds per name."""

    def __init__(self):
        self.spans: dict = {}
        self.counts: Counter = Counter()
        self.query_s: list = []
        self._child = [0.0]   # time covered by children of each open span
        self.last = 0.0

    def call(self, name: str, fn, *args, **kwargs):
        self._child.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            child = self._child.pop()
            self._child[-1] += dt
            rec = self.spans.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - child
            self.last = dt

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if name in COUNT_EVENTS:
                self.counts["hawkes.events"] += result.total
            return result
        return traced

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def seconds(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def self_seconds(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]


class TimedOracle:
    """Forwards to an oracle and records each query as a span."""

    def __init__(self, oracle, tracer: Tracer):
        self._oracle = oracle
        self._tracer = tracer

    @property
    def observed(self):
        return self._oracle.observed

    @property
    def calls(self) -> int:
        return self._oracle.calls

    def label(self, v):
        return self._oracle.label(v)

    def query(self, sources, targets, given=()):
        tracer = self._tracer
        answer = tracer.call("separation.query", self._oracle.query, sources, targets, given)
        tracer.query_s.append(tracer.last)
        tracer.counts["separation.independent"] += bool(answer)
        tracer.counts["separation.given"] += len(given)
        return answer


def traced_screening(tracer: Tracer):
    """A stand-in for ``screening.run`` that runs each stage as a public step."""

    def run(algorithm, oracle, observed=None):
        algorithm = Algorithm(algorithm)
        proxy = TimedOracle(oracle, tracer)
        start = proxy.calls

        def stage(name, fn, *args):
            before = proxy.calls
            out = tracer.call(f"screening.{name}", fn, *args)
            tracer.counts[f"screening.{name}.queries"] += proxy.calls - before
            return out

        def removing(name, candidates, fn, *args):
            out = stage(name, fn, *args)
            tracer.counts[f"screening.{name}.candidates"] += candidates
            tracer.counts[f"screening.{name}.removed"] += candidates - len(out.nonloop_directed)
            return out

        if algorithm is Algorithm.CA:
            graph = stage("ca", screening.run, algorithm, proxy, observed).graph
        else:
            n = len(proxy.observed if observed is None else set(observed))
            graph = removing("trek", n * (n - 1), screening.trek_step, proxy, observed)
            if algorithm is Algorithm.CSAPC:
                graph = stage("ancestry", screening.ancestry_propagation_cheap, graph)
            elif algorithm is Algorithm.CSAP:
                graph = stage("ancestry", screening.ancestry_propagation, proxy, graph)
            if algorithm is not Algorithm.TREK_ONLY:
                graph = removing("parent", len(graph.nonloop_directed),
                                 screening.parent_step, proxy, graph)
        return LearnResult(graph=graph, algorithm=algorithm,
                           oracle_calls=proxy.calls - start, certificates={}, trace=())

    return run


def install(tracer: Tracer) -> tuple:
    """Patch every traced call site; returns (ExitStack, screening capture)."""
    stack = ExitStack()
    for module, attr, name in WRAPPED:
        stack.enter_context(mock.patch.object(module, attr, tracer.wrap(name, getattr(module, attr))))
    capture = workloads.Capture(traced_screening(tracer))
    for module in (connectome, experiments):
        stack.enter_context(mock.patch.object(module, "run", capture))
    return stack, capture


def _percentile(ordered: list, pct: float) -> float:
    return ordered[max(math.ceil(pct / 100.0 * len(ordered)) - 1, 0)]


def _frac(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass, keyed as in BENCHMARK.json."""
    t = tracer
    queries = sorted(t.query_s)
    n_q = len(queries)
    events = t.counts["hawkes.events"]
    tail_pct = next((p for p in TAIL_PERCENTILES if n_q * (1 - p / 100.0) >= TAIL_SAMPLES), 0.0)
    m = {
        "graphs.ancestors.calls": t.calls("graphs.ancestors"),
        "graphs.ancestors.s": t.seconds("graphs.ancestors"),
        "graphs.latent_projection.s": t.seconds("graphs.latent_projection"),
        "graphs.canonical_dg.s": t.seconds("graphs.canonical_dg"),
        "graphs.parent_graph.s": t.seconds("graphs.parent_graph"),
        "connectome.ingest_connectome.s": t.seconds("connectome.ingest_connectome"),
        "connectome.subsample.s": t.seconds("connectome.subsample"),
        "separation.query.calls": n_q,
        "separation.query.s": t.seconds("separation.query"),
        "separation.query.us_p50": _percentile(queries, 50.0) * 1e6 if n_q else 0.0,
        "separation.query.us_tail": _percentile(queries, tail_pct) * 1e6 if tail_pct else 0.0,
        "separation.query.tail_pct": tail_pct,
        "separation.mu_separated.self_s": t.self_seconds("separation.mu_separated"),
        "separation.independent_frac": _frac(t.counts["separation.independent"], n_q),
        "separation.mean_given": _frac(t.counts["separation.given"], n_q),
        "screening.self_s": sum(t.self_seconds(f"screening.{s}") for s in STAGES),
        "experiments.random_dmg.s": t.seconds("experiments.random_dmg"),
        "experiments.excess_edges.s": t.seconds("experiments.excess_edges"),
        "hawkes.stationarity_check.s": t.seconds("hawkes.stationarity_check"),
        "hawkes.simulate.s": t.seconds("hawkes.simulate"),
        "hawkes.simulate_intervened.s": t.seconds("hawkes.simulate_intervened"),
        "hawkes.compensator.s": t.seconds("hawkes.compensator"),
        "hawkes.events": events,
        "hawkes.us_per_event": _frac(
            t.seconds("hawkes.simulate") + t.seconds("hawkes.simulate_intervened"),
            events) * 1e6,
    }
    for s in STAGES:
        m[f"screening.{s}.s"] = t.seconds(f"screening.{s}")
        m[f"screening.{s}.queries"] = t.counts[f"screening.{s}.queries"]
    for s in ("trek", "parent"):
        m[f"screening.{s}.removed_frac"] = _frac(
            t.counts[f"screening.{s}.removed"], t.counts[f"screening.{s}.candidates"])
    return m
