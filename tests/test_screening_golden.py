"""Golden digest of every screening decision on a small seeded corpus.

Eight ``random_dmg`` graphs (n = 7, two nodes hidden) are screened by
every algorithm under lexicographic and seeded random pair order. One
SHA-256 covers, per run, the learned graph, the sorted certificates, the
trace, ``oracle_calls`` and the oracle's query log (sources, targets,
given and answer, in issue order). Any change to which queries are asked,
in what order, or what is concluded from them moves the digest.
"""
import hashlib
import json

import numpy as np

from causalscreen import GraphicalOracle, run
from causalscreen.experiments import CorpusConfig, random_dmg

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


def _run_doc(res, oracle):
    g = res.graph
    return {
        "graph": [list(g.nodes), list(g.labels()), sorted(map(list, g.directed)),
                  sorted(map(list, g.bidirected))],
        "certificates": sorted([list(e), sorted(c)] for e, c in res.certificates.items()),
        "trace": [[list(t.edge), t.action, t.stage] for t in res.trace],
        "oracle_calls": res.oracle_calls,
        "log": [[sorted(q.sources), sorted(q.targets), sorted(q.given), q.independent]
                for q in oracle.log],
    }


def screening_digest():
    docs = []
    for i in range(CORPUS.count):
        truth = random_dmg(CORPUS, i)
        observed = _observed(i)
        for algo in ALGORITHMS:
            for order in ORDERS:
                oracle = GraphicalOracle(truth, observed, keep_log=True)
                docs.append(_run_doc(run(algo, oracle, **order), oracle))
    text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_screening_golden_digest():
    assert screening_digest() == GOLDEN
