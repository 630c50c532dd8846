"""Golden digest of every screening decision on a small seeded corpus.

Eight ``random_dmg`` graphs (n = 7, two nodes hidden) are screened by
every algorithm under lexicographic and seeded random pair order. One
SHA-256 covers, per run, the learned graph, the sorted certificates, the
trace, ``oracle_calls`` and the query log (sources, targets, given and
answer, in issue order) that ``LoggingOracle`` records around the oracle.
Any change to which queries are asked, in what order, or what is
concluded from them moves the digest. The same runs against bare oracles,
the path the benchmark takes, must reach the same graphs, certificates,
traces and call counts.
"""
import hashlib
import json

import numpy as np

from causalscreen import GraphicalOracle, run
from causalscreen.experiments import CorpusConfig, random_dmg
from helpers import LoggingOracle

CORPUS = CorpusConfig(n=7, p_dir=0.25, p_bi=0.1, count=8, seed=3)
HIDDEN = 2  # 30% of 7 nodes, rounded
ALGORITHMS = ("cs", "csapc", "csap", "ca", "trek")
ORDERS = ({"order": "lex"}, {"order": "random", "seed": 3})

# recorded before the screening stages were merged into one pair loop
GOLDEN = "5eaaf769b3924c74b2a027774c8c4d943ce3bc106fdde02b66c97f3f84c1b6c9"


def _observed(i):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([CORPUS.seed, i, 1])))
    hidden = set(rng.choice(CORPUS.n, size=HIDDEN, replace=False).tolist())
    return tuple(v for v in range(CORPUS.n) if v not in hidden)


def _result_doc(res):
    g = res.graph
    return {
        "graph": [list(g.nodes), list(g.labels()), sorted(map(list, g.directed)),
                  sorted(map(list, g.bidirected))],
        "certificates": sorted([list(e), sorted(c)] for e, c in res.certificates.items()),
        "trace": [[list(t.edge), t.action, t.stage] for t in res.trace],
        "oracle_calls": res.oracle_calls,
    }


def _run_doc(res, oracle):
    return {
        **_result_doc(res),
        "log": [[sorted(a), sorted(b), sorted(c), independent]
                for a, b, c, independent in oracle.log],
    }


def _runs():
    """(truth, observed, algorithm, order) of every golden run."""
    for i in range(CORPUS.count):
        truth = random_dmg(CORPUS, i)
        observed = _observed(i)
        for algo in ALGORITHMS:
            for order in ORDERS:
                yield truth, observed, algo, order


def screening_digest():
    docs = []
    for truth, observed, algo, order in _runs():
        oracle = LoggingOracle(GraphicalOracle(truth, observed))
        docs.append(_run_doc(run(algo, oracle, **order), oracle))
    text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_screening_golden_digest():
    assert screening_digest() == GOLDEN


def test_unlogged_runs_match_logged_runs():
    """The benchmark's path: a bare oracle decides exactly as a logged one."""
    for truth, observed, algo, order in _runs():
        logged = run(algo, LoggingOracle(GraphicalOracle(truth, observed)), **order)
        unlogged = run(algo, GraphicalOracle(truth, observed), **order)
        assert _result_doc(unlogged) == _result_doc(logged), (algo, order)
