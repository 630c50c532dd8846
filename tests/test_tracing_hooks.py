"""The benchmark's traced run still finds every call site it patches.

``perfbench/tracing.py`` wraps module attributes of the package by name
and splits screening runs into the public step functions. A rename or a
signature change in the package would break ``perfbench/run.py --trace 1``
without failing any other test; this test runs the tracer on small inputs
and checks it reproduces the untraced results.
"""
import importlib
import io
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import pytest

from causalscreen import (
    ConnectomeSpec,
    CorpusConfig,
    bench_run,
    connectome,
    experiments,
    run_connectome,
    screening,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CORPUS = CorpusConfig(n=6, p_dir=0.25, p_bi=0.1, count=3, seed=1)
SPEC = ConnectomeSpec(threshold=4, sample=8)


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing"), importlib.import_module("workloads")


def _screen(table):
    rows = bench_run(CORPUS, ("cs", "csapc", "csap", "ca"), latent_fraction=0.2)
    result = run_connectome(io.StringIO(table), SPEC, "cs", 3)
    return rows, result.to_json_dict(), result.learned


def _learned(capture):
    return [(r.graph, r.oracle_calls) for r in capture.results]


def test_traced_run_reproduces_untraced_results(perfbench):
    tracing, workloads = perfbench
    table = workloads.synthesize(40, 0)

    plain = workloads.Capture(screening.run)
    with ExitStack() as stack:
        for module in (connectome, experiments):
            stack.enter_context(mock.patch.object(module, "run", plain))
        expected = _screen(table)

    tracer = tracing.Tracer()
    stack, traced = tracing.install(tracer)
    with stack:
        got = _screen(table)

    assert got == expected
    assert len(traced.results) == len(plain.results) == 4 * CORPUS.count + 1
    assert _learned(traced) == _learned(plain)
    metrics = tracing.layer_metrics(tracer)
    assert metrics["separation.query.calls"] == sum(r.oracle_calls for r in plain.results)
    for stage in ("trek", "ancestry", "parent", "ca"):
        assert metrics[f"screening.{stage}.queries"] > 0
    assert tracer.calls("connectome.ingest_connectome") == 1
    assert tracer.calls("experiments.random_dmg") == CORPUS.count
