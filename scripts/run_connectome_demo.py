#!/usr/bin/env python3
"""Screen a synthetic wiring diagram and compare algorithm outputs.

Generates a synapse table with heavy-tailed out-degrees (a few hub neurons,
many peripheral ones), ingests it, and runs each screening algorithm on a
degree-weighted subsample. Useful as a template for real connectome CSVs:
point --file at one and the synthesis step is skipped.

    python3 scripts/run_connectome_demo.py --neurons 60 --sample 20
"""
import argparse
import io
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from causalscreen import ConnectomeSpec, run_connectome
from causalscreen._numbers import text_float, text_int


def synthesize(neurons, seed):
    """Hub-and-spoke synapse table: out-degree ~ Zipf, counts ~ geometric."""
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
    # sprinkle a few gap junctions between consecutive hubs
    for i in range(0, neurons - 1, neurons // 6 or 1):
        lines.append(f"{names[i]},{names[i + 1]},{3 + i % 5},gap")
    return "\n".join(lines) + "\n"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # type=int and float read by the package's number grammar, as the CLI does
    ap.register("type", int, text_int)
    ap.register("type", float, text_float)
    ap.add_argument("--file", help="existing synapse CSV; omit to synthesize one")
    ap.add_argument("--neurons", type=int, default=60, help="synthetic table size")
    ap.add_argument("--threshold", type=int, default=4)
    ap.add_argument("--sample", type=int, default=20)
    ap.add_argument("--weight-exponent", type=float, default=1.0)
    ap.add_argument("--topk", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--algos", default="cs,csapc,csap,ca")
    ap.add_argument("--save-table", help="also write the synthetic CSV here")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.file:
        text = Path(args.file).read_text()
    else:
        text = synthesize(args.neurons, args.seed)
        if args.save_table:
            Path(args.save_table).write_text(text)
            print(f"wrote synthetic table to {args.save_table}")

    spec = ConnectomeSpec(
        threshold=args.threshold,
        sample=args.sample,
        weight_exponent=args.weight_exponent,
    )
    header = f"{'algo':6s} {'true':>5s} {'excess':>6s} {'calls':>6s} " \
             f"{'sp_in':>7s} {'sp_out':>7s} {'top{k}_in':>8s}"
    print(header.replace("{k}", str(args.topk)))
    for algo in (a.strip() for a in args.algos.split(",") if a.strip()):
        res = run_connectome(io.StringIO(text), spec, algo, args.seed, topk=args.topk)
        sp_in = "nan" if res.spearman_in != res.spearman_in else f"{res.spearman_in:.3f}"
        sp_out = "nan" if res.spearman_out != res.spearman_out else f"{res.spearman_out:.3f}"
        print(
            f"{algo:6s} {res.true_edges:5d} {res.excess:6d} {res.calls:6d} "
            f"{sp_in:>7s} {sp_out:>7s} {res.topk_in:8d}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
