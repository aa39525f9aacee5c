#!/usr/bin/env python3
"""Regenerate ``goldens.json``, the committed output digests.

Run from the repository root after a change that is meant to alter the
trainers' outputs::

    python3 perfbench/make_goldens.py

Each digest is taken with a message counter on, and is written only if
its weights and losses match the serial reference and its shape keys
(clocks, makespan, message and byte counts, ...) agree across seeds.
"""

from __future__ import annotations

import json
import sys

import run

#: The default seed and one held-out seed for re-checking later claims.
GOLDEN_SEEDS = (1, 1001)


def main() -> int:
    wl = run.load_workloads()
    empty = {"shape": {}, "seeds": {}}
    goldens = {}
    for name, workload in wl.WORKLOADS.items():
        digests = {}
        for seed in GOLDEN_SEEDS:
            inp = workload.inputs(seed)
            bench = run.Bench(wl, workload, inp, empty, seed)
            bench.op(count=True)
            bench.verify_first()
            if bench.failed:
                print(f"{name} seed {seed}: {bench.problems}", file=sys.stderr)
                return 1
            digests[seed] = bench.expected
        shapes = [
            {k: v for k, v in d.items() if k not in wl.SEED_KEYS} for d in digests.values()
        ]
        if any(s != shapes[0] for s in shapes):
            print(f"{name}: shape keys differ across seeds", file=sys.stderr)
            return 1
        goldens[name] = {
            "shape": shapes[0],
            "seeds": {
                str(seed): {k: d[k] for k in wl.SEED_KEYS if k in d}
                for seed, d in digests.items()
            },
        }
        print(f"{name}: ok")
    with open(run.GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
