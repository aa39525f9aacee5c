#!/usr/bin/env python3
"""perfbench: host seconds per simulated 1.5D training step.

Run from the repository root::

    python3 perfbench/run.py --workload mlp-p512 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it reports the end-to-end metrics of untraced ops;
with ``--trace 1`` the per-layer metrics of ops run under the span
layer (:mod:`spans`), alternated with untraced ops for the overhead
ratio.  Every op's output is checked.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See ``README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

# Pinned environment: one BLAS thread, set before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
GOLDENS = os.path.join(HERE, "goldens.json")
#: Extra fresh processes that repeat the set-up, for the setup_s median.
SETUP_PROBES = 4
#: Digest keys that only ops run with a message counter carry.
COUNT_KEYS = ("msgs", "payload_bytes")


def load_workloads():
    """Import the benchmark's workloads from the checkout's own sources."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no repro sources at {SRC}; run from a repository checkout")
    sys.path.insert(0, SRC)
    import repro
    import workloads

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        sys.exit(f"perfbench: repro was imported from {repro.__file__}, not {SRC}")
    return workloads


def pin_to_one_cpu() -> None:
    """Keep every tasklet thread on one CPU, the lowest this process may
    use: hand-offs between tasklets then never migrate across cores,
    which made unpinned runs slower and noisier."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def setup_probe(workload: str, seed: int) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


class Bench:
    """Runs and checks the ops of one workload."""

    def __init__(self, wl, workload, inp, golden, seed):
        self.wl = wl
        self.workload = workload
        self.inp = inp
        self.golden = golden
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.expected = None
        self.first = None
        self.problems = []

    def op(self, spans=None, count=False):
        """One checked op; returns ``(wall_s, accountant or None)``, or
        ``None`` when the op raised or its digest did not match."""
        from repro.profile import hooks

        gc.collect()
        counters = hooks.HookCounters() if count else None
        if spans is not None:
            spans.install()
        hooks.ACTIVE = counters
        self.attempted += 1
        try:
            if spans is not None:
                spans.acc.begin()
            t0 = perf_counter()
            out = self.workload.run(self.inp)
            wall = perf_counter() - t0
            if spans is not None:
                wall = spans.acc.end() / 1e9
        except Exception as exc:  # an op that raises counts as failed
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.problems.append(f"op raised {type(exc).__name__}: {exc}")
            return None
        finally:
            hooks.ACTIVE = None
            if spans is not None:
                spans.uninstall()
        if counters is not None:
            msgs, nbytes = counters.msgs_sent, counters.bytes_sent
        elif spans is not None:
            msgs = spans.acc.counts["comm.msgs"]
            nbytes = spans.acc.counts["comm.payload_bytes"]
        else:
            msgs = nbytes = -1
        got = self.wl.digest(out, msgs, nbytes)
        if self.expected is None:
            self.expected, self.first = got, out
            self.first.tracer = None
        elif not self._matches(got):
            self.failed += 1
            return None
        return wall, (spans.acc if spans is not None else None)

    def _matches(self, got):
        for key, want in self.expected.items():
            if got[key] != want and not (key in COUNT_KEYS and got[key] == -1):
                self.problems.append(f"{key} differs from the first op")
                return False
        return True

    def verify_first(self):
        """Check the first op against the goldens or the serial reference.
        Every later op matched it, so if it is wrong they all are."""
        if self.expected is None:
            return
        problems = self.wl.check(
            self.workload, self.inp, self.first, self.expected, self.golden, self.seed
        )
        if problems:
            self.problems.extend(problems)
            self.failed = self.attempted


def timed_loop(seconds, unit):
    """Run ``unit`` at least once, then while the next one should end
    within ``seconds`` of the start."""
    start = perf_counter()
    last = 0.0
    while True:
        elapsed = perf_counter() - start
        if last and elapsed + last > seconds:
            return
        t = perf_counter()
        unit()
        last = perf_counter() - t


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    pin_to_one_cpu()
    t0 = perf_counter()
    wl = load_workloads()
    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        ap.error(f"unknown workload {args.workload!r}; one of {', '.join(wl.WORKLOADS)}")
    inp = workload.inputs(args.seed)
    setup_s = perf_counter() - t0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    with open(GOLDENS) as fh:
        golden = json.load(fh)[workload.name]
    bench = Bench(wl, workload, inp, golden, args.seed)
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} (event backend, 1 BLAS thread)")
    bench.op(count=True)  # warm-up: excluded from the metrics, still checked
    metrics = {}
    if args.trace == 0:
        setup = [setup_s] + [setup_probe(workload.name, args.seed) for _ in range(SETUP_PROBES)]
        walls = []

        def unit():
            res = bench.op()
            if res is not None:
                walls.append(res[0])

        timed_loop(args.seconds, unit)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        samples = walls or [0.0]  # every op failed: correct is false anyway
        steps = workload.steps
        q1, q3 = quartiles(samples)
        makespan = float.fromhex(bench.expected["makespan"]) if bench.expected else 0.0
        metrics = {
            "step_s": (statistics.median(samples) / steps, "s"),
            "sim_step_s": (makespan / steps, "sim_s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
        print(f"  step_s sampled over {len(walls)} ops: q1 {q1 / steps:.6g} s, "
              f"q3 {q3 / steps:.6g} s; setup_s over {len(setup)} set-ups")
    else:
        from spans import LAYER_METRICS, Spans, layer_metrics

        spans = Spans()
        plain, traced, layers = [], [], []

        def unit():
            res = bench.op()
            if res is not None:
                plain.append(res[0])
            res = bench.op(spans=spans)
            if res is not None:
                wall, acc = res
                traced.append(wall)
                layers.append(layer_metrics(acc, workload.steps))

        timed_loop(args.seconds, unit)
        for name, unit_name in LAYER_METRICS.items():
            if name == "spans.overhead":
                value = (statistics.median(traced) / statistics.median(plain)
                         if traced and plain else 0.0)
            else:
                value = statistics.median(m[name] for m in layers) if layers else 0.0
            metrics[name] = (value, unit_name)
        print(f"  per-layer metrics over {len(traced)} traced ops, "
              f"{len(plain)} untraced ops")
    bench.verify_first()

    for name, (value, unit_name) in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {unit_name}")
    print(f"  ops attempted {bench.attempted}, failed {bench.failed} (ops_failed)")
    for problem in bench.problems[:10]:
        print(f"  !! {problem}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
