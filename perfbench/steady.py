#!/usr/bin/env python3
"""Steadiness mode: how much the end-to-end metrics move between runs.

Runs ``run.py --trace 0`` repeatedly, each run in a fresh process with
its own seed, alternating the workload order between rounds.  Prints,
per workload and end-to-end metric, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
``(q3 - q1) / median`` next to the metric's bound from
``BENCHMARK.json``.  A spread under a third of its bound is steady.
From the repository root::

    python3 perfbench/steady.py --runs 10 [--workload NAME ...]

Exits 1 if a run fails its output check or a spread other than
``setup_s``'s reaches a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args(argv)
    workloads = args.workload or names

    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in workloads}
    failed = 0
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            result = run_once(w, args.first_seed + i, spec["run_seconds"])
            failed += result["failed"] + (not result["correct"])
            for name, m in result["metrics"].items():
                values[w][name].append(m["value"])
            print(f"run {i + 1} {w}: " + ", ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)

    steady = True
    print(f"\n{'workload':<18}{'metric':<13}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>7}  verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            vals = values[w][m["name"]]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            ok = spread < m["bound"] / 3
            if m["name"] != "setup_s":
                steady &= ok
            print(f"{w:<18}{m['name']:<13}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}"
                  f"{spread:>9.4f}{m['bound']:>7.2f}  {'steady' if ok else 'SPREAD'}")
    print(f"\nruns per workload: {args.runs}; ops failed: {failed}")
    return 0 if steady and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
