#!/usr/bin/env python3
"""Record the output digest and operation count of each workload for some seeds.

    python3 perfbench/record.py --seeds 0 1 2 3 4 5 6 7 8 9

Writes ``expected.json`` next to this file; ``run.py`` checks every pass of
a recorded seed against it. Re-record only when a change is meant to alter
the program's outputs, and say so in that change.
"""

import argparse
import json

import run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    workloads = run.import_program()
    recorded = {}
    for name, cls in workloads.WORKLOADS.items():
        for seed in args.seeds:
            _, out, _ = run.untraced_pass(cls(seed))
            recorded.setdefault(name, {})[str(seed)] = {"full": out.full, "ops": out.ops}
            print(f"{name} seed {seed}: {out.ops} ops, {out.full}", flush=True)
    path = run.HERE / "expected.json"
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
