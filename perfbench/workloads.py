"""The three benchmark workloads: inputs from a seed, one pass, output digests.

Each workload object builds its inputs in ``__init__`` (the set-up that
``setup_s`` times) and runs one pass of the program in ``run_pass``, the
timed part, which returns the program's results. ``output`` then checks
and summarises them, untimed, as a :class:`PassOutput`: the number of
operations the pass did (oracle queries, or simulated events) and two
SHA-256 digests of its outputs:

* ``full`` covers every deterministic output of the pass: learned graphs,
  certificates, traces and ``oracle_calls`` of each screening run, plus the
  workload's own report (connectome scores, the metrics CSV with ``ms`` at
  0, or the event CSVs). It is compared with the digest recorded in
  ``expected.json`` for the seed, and with the first pass of the process.
* ``core`` covers only the learned graphs, ``oracle_calls`` and the
  report. The traced run, which splits each screening run into the public
  step functions, has no certificates or trace to hash; its ``core``
  digest must equal the one of an untraced pass.

Screening runs are seen through the ``run`` attribute of the ``connectome``
and ``experiments`` modules, which the harness replaces by a
:class:`Capture` for every pass. ``pinned`` names the per-layer count
that must equal the program's own operation count.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import dataclass

import numpy as np

from causalscreen import (
    Algorithm,
    ConnectomeSpec,
    CorpusConfig,
    ExponentialKernel,
    HawkesModel,
    Intervention,
    bench_run,
    rescaled_intervals,
    run_connectome,
    simulate,
    simulate_intervened,
    write_metrics_csv,
)

# connectome: CONNECTOME_RUNS screening runs, each on one fixed 300-neuron
# hub-and-spoke wiring diagram plus its own 500 gap junctions, so that each
# canonical form hides about 780 nodes behind a 20-neuron sample. The cost
# of a single run swings by +-20% with the inputs (it is dominated by
# walk searches through whichever hubs stay hidden); eight runs per pass
# average that out. The wiring is fixed, as a real connectome is data; a
# seeded wiring moved the cost by another +-20%.
NEURONS = 300
WIRING_SEED = 0
GAP_JUNCTIONS = 500
CONNECTOME_RUNS = 8
CONNECTOME_SPEC = ConnectomeSpec(threshold=4, sample=20)

# corpus: many small graphs, each screened by all four algorithms; enough
# of them that the per-seed cost varies little.
CORPUS_GRAPHS = 24
CORPUS_ALGORITHMS = ("cs", "csapc", "csap", "ca")
LATENT_FRACTION = 0.2

# hawkes: a stable 50-node network over a long horizon; baseline rates are
# scaled to a fixed stationary total rate so that every seed simulates
# about the same number of events.
HAWKES_NODES = 50
HAWKES_CROSS_P = 0.1
HAWKES_RHO = 0.31
HAWKES_RATE = 36.0
HAWKES_HORIZON = 1000.0
FORCED_PERIOD = 2.0
# Mean of all rescaled inter-event intervals; Exp(1) under the model, and
# with ~36k intervals its standard error is about 0.005.
RESCALED_MEAN_TOLERANCE = 0.05


@dataclass(frozen=True)
class PassOutput:
    ops: int       # counted by the program; equals the workload's pinned layer count
    core: str
    full: str


class WorkloadError(RuntimeError):
    """A pass produced output that breaks a property the workload checks."""


class Capture:
    """Stands in for ``screening.run`` and keeps every result it returns."""

    def __init__(self, run):
        self._run = run
        self.results = []

    def __call__(self, algorithm, oracle, *args, **kwargs):
        result = self._run(algorithm, oracle, *args, **kwargs)
        self.results.append(result)
        return result


def _digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _graph_doc(g) -> dict:
    return {
        "nodes": list(g.nodes),
        "labels": list(g.labels()),
        "directed": sorted(map(list, g.directed)),
        "bidirected": sorted(map(list, g.bidirected)),
    }


def _learn_doc(result, full: bool) -> dict:
    doc = {
        "algorithm": Algorithm(result.algorithm).value,
        "oracle_calls": result.oracle_calls,
        "graph": _graph_doc(result.graph),
    }
    if full:
        doc["certificates"] = sorted(
            [list(edge), sorted(given)] for edge, given in result.certificates.items())
        doc["trace"] = [[list(t.edge), t.action, t.stage] for t in result.trace]
    return doc


def _screening_output(report, results) -> PassOutput:
    if not results:
        raise WorkloadError("pass ran no screening algorithm")
    return PassOutput(
        ops=sum(r.oracle_calls for r in results),
        core=_digest([report, [_learn_doc(r, False) for r in results]]),
        full=_digest([report, [_learn_doc(r, True) for r in results]]),
    )


def synthesize(neurons: int, seed: int) -> str:
    """Hub-and-spoke synapse table: out-degree ~ Zipf, counts ~ geometric.

    The same generator as ``scripts/run_connectome_demo.py``, kept here so
    that the benchmark inputs stay fixed whatever happens to that script.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    names = [f"n{i:03d}" for i in range(neurons)]
    lines = ["pre,post,count,type"]
    for i, pre in enumerate(names):
        fanout = min(int(rng.zipf(1.6)), neurons - 1)
        targets = rng.choice(neurons, size=fanout, replace=False)
        for j in targets:
            if j == i:
                continue
            count = 1 + int(rng.geometric(0.25))
            lines.append(f"{pre},{names[j]},{count},chem")
    for i in range(0, neurons - 1, neurons // 6 or 1):
        lines.append(f"{names[i]},{names[i + 1]},{3 + i % 5},gap")
    return "\n".join(lines) + "\n"


def connectome_inputs(wiring: str, seed: int, k: int) -> tuple:
    """Run k's synapse table (the wiring plus its gap junctions) and sample seed."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, k])))
    lines = [wiring.rstrip("\n")]
    for _ in range(GAP_JUNCTIONS):
        a, b = rng.choice(NEURONS, size=2, replace=False)
        lines.append(f"n{a:03d},n{b:03d},{1 + int(rng.integers(8))},gap")
    return "\n".join(lines) + "\n", int(rng.integers(2**32))


class ConnectomeWorkload:
    """CS ``run_connectome`` calls on large hidden graphs."""

    pinned = "separation.query.calls"

    def __init__(self, seed: int):
        wiring = synthesize(NEURONS, WIRING_SEED)
        self.inputs = [connectome_inputs(wiring, seed, k) for k in range(CONNECTOME_RUNS)]

    def run_pass(self, capture: Capture) -> list:
        return [run_connectome(io.StringIO(table), CONNECTOME_SPEC, "cs", sample_seed)
                for table, sample_seed in self.inputs]

    def output(self, results: list, capture: Capture) -> PassOutput:
        report = [[r.to_json_dict(), _graph_doc(r.truth_parent), _graph_doc(r.learned)]
                  for r in results]
        return _screening_output(report, capture.results)


class CorpusWorkload:
    """``bench_run`` of four algorithms over a corpus of small graphs."""

    pinned = "separation.query.calls"

    def __init__(self, seed: int):
        self.cfg = CorpusConfig(n=10, p_dir=0.2, p_bi=0.1, count=CORPUS_GRAPHS, seed=seed)

    def run_pass(self, capture: Capture) -> list:
        return bench_run(self.cfg, CORPUS_ALGORITHMS, latent_fraction=LATENT_FRACTION,
                         threads=1)

    def output(self, rows: list, capture: Capture) -> PassOutput:
        csv = io.StringIO()
        write_metrics_csv(rows, csv)
        return _screening_output(csv.getvalue(), capture.results)


def hawkes_model(seed: int) -> HawkesModel:
    """Stable network: self-excitation everywhere, cross edges with p=0.1.

    Branching ratios are drawn and then scaled so that the spectral radius
    of the branching matrix is exactly HAWKES_RHO; baseline rates are drawn
    and then scaled so that the stationary rates sum to HAWKES_RATE.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 2])))
    n = HAWKES_NODES
    mu = rng.uniform(0.3, 0.7, size=n)
    decay = rng.uniform(1.0, 3.0, size=(n, n))
    ratio = rng.uniform(0.5, 1.0, size=(n, n))
    ratio *= rng.random((n, n)) < HAWKES_CROSS_P
    np.fill_diagonal(ratio, rng.uniform(0.5, 1.0, size=n))
    ratio *= HAWKES_RHO / np.abs(np.linalg.eigvals(ratio)).max()
    mu *= HAWKES_RATE / np.linalg.solve(np.eye(n) - ratio, mu).sum()
    kernels = tuple(
        tuple(ExponentialKernel(float(ratio[b, a] * decay[b, a]), float(decay[b, a]))
              for a in range(n))
        for b in range(n))
    return HawkesModel(tuple(float(x) for x in mu), kernels, HAWKES_HORIZON)


class HawkesWorkload:
    """Simulate, simulate under interventions, then rescale every node."""

    pinned = "hawkes.events"

    def __init__(self, seed: int):
        self.seed = seed
        self.model = hawkes_model(seed)
        silenced, forced = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([seed, 3]))).choice(
                HAWKES_NODES, size=2, replace=False)
        self.forced_times = tuple(np.arange(FORCED_PERIOD / 2, HAWKES_HORIZON, FORCED_PERIOD))
        self.interventions = (Intervention(int(silenced), ()),
                              Intervention(int(forced), self.forced_times))

    def run_pass(self, capture: Capture) -> tuple:
        history = simulate(self.model, self.seed)
        intervened = simulate_intervened(self.model, self.interventions, self.seed + 1)
        intervals = [rescaled_intervals(self.model, history, v) for v in range(self.model.n)]
        return history, intervened, intervals

    def output(self, results: tuple, capture: Capture) -> PassOutput:
        history, intervened, intervals = results
        self._check(history, intervened, np.concatenate(intervals))
        csvs = []
        for h in (history, intervened):
            buf = io.StringIO()
            h.to_csv(buf)
            csvs.append(hashlib.sha256(buf.getvalue().encode()).hexdigest())
        digest = _digest(csvs)
        return PassOutput(ops=history.total + intervened.total, core=digest, full=digest)

    def _check(self, history, intervened, intervals) -> None:
        silenced, forced = self.interventions
        if intervened.times[silenced.node]:
            raise WorkloadError(f"silenced node {silenced.node} fired")
        if intervened.times[forced.node] != forced.times:
            raise WorkloadError(f"forced node {forced.node} left its forced times")
        if len(intervals) != history.total:
            raise WorkloadError("one rescaled interval per event expected")
        mean = float(intervals.mean())
        if abs(mean - 1.0) > RESCALED_MEAN_TOLERANCE:
            raise WorkloadError(f"rescaled intervals have mean {mean:.4f}, expected 1")


WORKLOADS = {
    "connectome": ConnectomeWorkload,
    "corpus": CorpusWorkload,
    "hawkes": HawkesWorkload,
}
