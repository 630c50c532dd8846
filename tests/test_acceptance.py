"""Package acceptance gate: ten numbered criteria, one verdict line each.

Every test prints ``criterion N: PASS/FAIL`` (run with ``pytest -s`` to see
the lines as they happen; failures echo them in the report). Corpora are
pinned by seed so reruns are reproducible. Criterion 8 scores CS on the
six-node demo graph against its reference answer; the README section
"Tests" derives that answer from the separation definition, and
``tests/test_screening.py::TestDemoReference`` rechecks it by walk
enumeration.
"""
import time

import numpy as np
import pytest

from causalscreen import (
    CorpusConfig,
    DirectedMixedGraph,
    ExponentialKernel,
    GraphicalOracle,
    HawkesModel,
    SoundnessViolation,
    aggregate,
    bench_run,
    canonical_dg,
    directed_part,
    excess_edges,
    latent_projection,
    mu_separated,
    random_dmg,
    run,
    simulate,
    rescaled_intervals,
    stationary_rates,
    trek_step,
)
from causalscreen.cli import main as cli_main
from conftest import DEMO_EDGES, DEMO_LABELS, DEMO_OBS
import helpers
from helpers import (
    brute_force_mu_separated,
    directed_trek_exists,
    powerset,
    random_observed,
    reference_parent_graph,
)

SEED = 20250819
ALGOS = ("cs", "csapc", "csap", "ca")


def report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    helpers.ACCEPTANCE_VERDICTS.append(line)
    return ok


def separation_corpus():
    combos = [
        (n, pd, pb)
        for n in (3, 4, 5)
        for pd in (0.2, 0.5, 0.8)
        for pb in (0.2, 0.5, 0.8)
    ]
    for k in range(300):
        n, pd, pb = combos[k % len(combos)]
        yield random_dmg(CorpusConfig(n, pd, pb, 1, SEED), k)


def screening_corpus():
    densities = [(pd, pb) for pd in (0.2, 0.5, 0.8) for pb in (0.2, 0.5, 0.8)]
    for k in range(500):
        n = 3 + (k % 6)
        pd, pb = densities[k % len(densities)]
        g = random_dmg(CorpusConfig(n, pd, pb, 1, SEED), k)
        yield g, random_observed(g.n, SEED, k)


@pytest.fixture(scope="module")
def screening_results():
    """One pass over the 500-truth corpus, shared by criteria 4, 5 and 6."""
    stats = {
        "missing": 0,
        "runs": 0,
        "unconfounded_checks": 0,
        "unconfounded_violations": 0,
        "budget_breaches": 0,
        "trek_mismatches": 0,
    }
    for g, obs in screening_corpus():
        dg, _ = canonical_dg(g)
        truth = reference_parent_graph(dg, obs)
        proj = latent_projection(g, obs)
        m = len(obs)
        sibs = {v for pair in proj.bidirected for v in pair}
        outputs = {}
        for algo in ALGOS:
            res = run(algo, GraphicalOracle(g, obs))
            outputs[algo] = res
            stats["runs"] += 1
            try:
                excess_edges(res.graph, truth)
            except SoundnessViolation:
                stats["missing"] += 1
            if algo in ("cs", "csapc") and res.oracle_calls > 2 * m * (m - 1):
                stats["budget_breaches"] += 1
        oracle = GraphicalOracle(g, obs)
        trek_step(oracle)
        if oracle.calls != m * (m - 1):
            stats["trek_mismatches"] += 1
        cs_edges = set(outputs["cs"].graph.nonloop_directed)
        for b in obs:
            if b in sibs:
                continue
            stats["unconfounded_checks"] += 1
            for a in obs:
                if a != b and (a, b) in cs_edges and not proj.has_directed(a, b):
                    stats["unconfounded_violations"] += 1
    return stats


def test_criterion_01_separation_search_matches_enumeration():
    t0 = time.perf_counter()
    queries = mismatches = 0
    for g in separation_corpus():
        for a in g.nodes:
            rest = [v for v in g.nodes if v != a]
            for c in powerset(rest):
                fast = None
                for b in g.nodes:
                    queries += 1
                    if mu_separated(g, {a}, {b}, c) != brute_force_mu_separated(
                        g, {a}, {b}, c
                    ):
                        mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 120.0
    assert report(
        1, ok, f"{queries} queries, {mismatches} mismatches, {elapsed:.1f}s"
    )


def test_criterion_02_trek_decision_is_dual_to_separation():
    pairs = mismatches = 0
    for g in separation_corpus():
        for a in g.nodes:
            for b in g.nodes:
                pairs += 1
                if directed_trek_exists(g, a, b) != (
                    not mu_separated(g, {a}, {b}, {b})
                ):
                    mismatches += 1
    assert report(2, mismatches == 0, f"{pairs} ordered pairs, {mismatches} mismatches")


def test_criterion_03_projection_directed_part_is_parent_graph():
    checked = mismatches = 0
    for k in range(300):
        n = 3 + (k % 6)
        pd = (0.2, 0.5, 0.8)[k % 3]
        g = random_dmg(CorpusConfig(n, pd, 0.0, 1, SEED), k)
        obs = random_observed(g.n, SEED, k)
        checked += 1
        if directed_part(latent_projection(g, obs)) != reference_parent_graph(g, obs):
            mismatches += 1
    assert report(3, mismatches == 0, f"{checked} graphs, {mismatches} mismatches")


def test_criterion_04_no_algorithm_drops_a_true_edge(screening_results):
    s = screening_results
    ok = s["missing"] == 0
    assert report(4, ok, f"{s['runs']} runs, {s['missing']} soundness violations")


def test_criterion_05_unconfounded_targets_get_exact_parents(screening_results):
    s = screening_results
    ok = s["unconfounded_violations"] == 0
    assert report(
        5,
        ok,
        f"{s['unconfounded_checks']} unconfounded targets, "
        f"{s['unconfounded_violations']} spurious parents",
    )


def test_criterion_06_query_budgets(screening_results):
    s = screening_results
    ok = s["budget_breaches"] == 0 and s["trek_mismatches"] == 0
    assert report(
        6,
        ok,
        f"{s['budget_breaches']} budget breaches, "
        f"{s['trek_mismatches']} trek-count mismatches",
    )


def test_criterion_07_density_sweeps():
    densities = (0.1, 0.25, 0.4, 0.55, 0.7)
    ca_beats_cs = []
    for p in densities:
        cfg = CorpusConfig(5, p, p / 2, 500, SEED)
        agg = aggregate(bench_run(cfg, ("cs", "ca")))
        ca_beats_cs.append(agg["ca"]["mean_calls"] > agg["cs"]["mean_calls"])
    propagation_ok = []
    for p in densities:
        cfg = CorpusConfig(10, p, p / 2, 120, SEED)
        agg = aggregate(bench_run(cfg, ("cs", "csapc", "csap")))
        bound = agg["cs"]["mean_excess"] + 0.1
        propagation_ok.append(
            agg["csapc"]["mean_excess"] <= bound
            and agg["csap"]["mean_excess"] <= bound
        )
    ok = all(ca_beats_cs) and all(propagation_ok)
    assert report(
        7,
        ok,
        f"CA dearer than CS at {sum(ca_beats_cs)}/5 densities, "
        f"propagation within excess bound at {sum(propagation_ok)}/5",
    )


def test_criterion_08_reference_worked_example():
    truth = DirectedMixedGraph(6, DEMO_EDGES, labels=DEMO_LABELS)
    res = run("cs", GraphicalOracle(truth, DEMO_OBS))
    got = set(res.graph.nonloop_directed)
    # the hidden fork f keeps e -> d: e <- f -> d connects given any C
    want = {(0, 3), (0, 4), (3, 4), (4, 3)}
    truth_parent = reference_parent_graph(canonical_dg(truth)[0], DEMO_OBS)
    got_excess = excess_edges(res.graph, truth_parent)
    ok = got == want and got_excess == 2
    assert report(
        8,
        ok,
        f"expected edges {sorted(want)} with excess 2, "
        f"got {sorted(got)} with excess {got_excess}",
    )


def test_criterion_09_simulator_statistics():
    t0 = time.perf_counter()
    K = ExponentialKernel

    # (a) silent kernels reduce to a Poisson process
    poisson = HawkesModel((2.0,), ((K(0.0, 1.0),),), 100.0)
    counts = [simulate(poisson, 1000 + rep).total for rep in range(200)]
    grand = float(np.mean(counts))
    poisson_ok = abs(grand - 200.0) < 4.0  # 4 sigma of the grand mean

    # (b) long-run rates match the stationary solution
    model = HawkesModel(
        (0.5, 0.5),
        ((K(0.3, 1.0), K(0.3, 2.0)), (K(0.4, 1.0), K(0.2, 1.0))),
        10_000.0,
    )
    history = simulate(model, 7)
    predicted = stationary_rates(model)
    rates = np.array(history.counts()) / model.horizon
    rel = np.abs(rates - predicted) / predicted
    rates_ok = bool(np.all(rel < 0.05))

    # (c) time rescaling sends own-event gaps to Exp(1)
    from scipy import stats

    gaps = np.concatenate(
        [rescaled_intervals(model, history, v) for v in range(model.n)]
    )
    _, p_value = stats.kstest(gaps, "expon")
    ks_ok = len(gaps) >= 10_000 and p_value > 0.01

    elapsed = time.perf_counter() - t0
    ok = poisson_ok and rates_ok and ks_ok and elapsed < 300.0
    assert report(
        9,
        ok,
        f"poisson grand mean {grand:.2f}, max rate error {rel.max():.4f}, "
        f"KS p={p_value:.4f} on {len(gaps)} gaps, {elapsed:.1f}s",
    )


def test_criterion_10_cli_reruns_are_byte_identical(tmp_path):
    truth = DirectedMixedGraph(6, DEMO_EDGES, labels=DEMO_LABELS)
    graph_file = tmp_path / "truth.json"
    graph_file.write_text(truth.to_json())
    model = HawkesModel(
        (0.5, 0.5),
        (
            (ExponentialKernel(0.3, 1.0), ExponentialKernel(0.3, 2.0)),
            (ExponentialKernel(0.4, 1.0), ExponentialKernel(0.2, 1.0)),
        ),
        50.0,
    )
    model_file = tmp_path / "model.json"
    with open(model_file, "w") as fh:
        model.to_json(fh)
    synapse_file = tmp_path / "synapses.csv"
    synapse_file.write_text(
        "pre,post,count,type\n"
        + "".join(f"n{i},n{(i * 3 + 1) % 8},{5 + i},chem\n" for i in range(8))
        + "n0,n7,6,gap\n"
    )

    commands = {
        "learn": [
            "learn", "--graph", str(graph_file), "--observed", "a,d,e",
            "--algo", "csap", "--emit-certificates", "--emit-trace",
        ],
        "simulate": ["simulate", "--model", str(model_file), "--seed", "4",
                     "--intervene", "0@1,2.5"],
        "bench": ["bench", "--n", "4", "--p-dir", "0.3,0.6", "--p-bi", "0.2",
                  "--count", "3", "--algos", "cs,csap", "--seed", "6"],
        "connectome": ["connectome", "--file", str(synapse_file), "--threshold",
                       "4", "--sample", "3", "--algo", "cs", "--seed", "11"],
        "musep": ["musep", "--graph", str(graph_file), "-A", "e", "-B", "d",
                  "-C", "d"],
    }
    out_flag = {"learn": "--out-json"}
    unstable = []
    for name, argv in commands.items():
        first = tmp_path / f"{name}_1.out"
        second = tmp_path / f"{name}_2.out"
        for path in (first, second):
            rc = cli_main(argv + [out_flag.get(name, "--out"), str(path)])
            assert rc == 0, name
        if first.read_bytes() != second.read_bytes():
            unstable.append(name)
    ok = not unstable
    assert report(
        10, ok, f"5 commands rerun, unstable: {unstable if unstable else 'none'}"
    )
