"""Scheduler wall-clock gate for the discrete-event simmpi engine.

Three claims are gated against the committed baseline in
``benchmarks/BENCH_simmpi.json``:

1. **Barrier-storm ceilings.**  A barrier storm (pure blocking/wakeup
   traffic, no numerics) is timed at P=64 and P=512; the median wall
   time over ``REPS`` runs must stay under the committed ceilings.
   Each ceiling keeps the headroom the retired thread/event speedup
   floor had over its measured ratio (2.31x / 1.4 = 1.65x at P=64,
   12.68x / 6.0 = 2.1x at P=512), applied to the quiet-machine median
   of the storm itself (0.29 s and 0.82 s on a 2-vCPU host, 5 runs).

2. **Scale ceiling.**  A full-telemetry, fault-injected 1.5D training
   step at P=1024 must finish within the committed wall-clock ceiling:
   the "1k+ ranks are routine" claim, kept honest in seconds.

3. **Bit-identity.**  Every case of the engine's golden matrix
   (``tests/backend_cases.py``) is re-run inside the gate and must
   reproduce ``tests/golden/backend_matrix.json`` exactly: values,
   final clocks, failed sets, canonical traces and failure messages.

Exit-code convention (same as the other ``BENCH_*`` gates):

* ``0`` — all gates pass.
* ``1`` — regression (``REGRESSION: ...`` on stderr).
* ``2`` — configuration error (unreadable/mismatched baseline).

Refresh the baseline after an intentional change with::

    python benchmarks/bench_simmpi.py --update-baseline
"""

import argparse
import json
import os
import statistics
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_simmpi.json")
BENCH_SCHEMA = "repro.simmpi.bench/v2"

REPS = 5

CONFIG = {
    "storm_small": {"ranks": 64, "rounds": 40},
    "storm_large": {"ranks": 512, "rounds": 8},
    "scale": {"pr": 32, "pc": 32, "steps": 1, "dims": [64, 64, 32]},
    "reps": REPS,
}

# Committed gates: quiet medians 0.29 s (P=64) and 0.82 s (P=512)
# times the headroom of the speedup floors they replace.
CEILING_P64_S = 0.48  # 0.29 s x 1.65
CEILING_P512_S = 1.72  # 0.82 s x 2.1
CEILING_P1024_S = 60.0


def _storm(comm, rounds):
    for _ in range(rounds):
        comm.barrier()
    return comm.clock


def _storm_walls(ranks, rounds):
    """Median barrier-storm wall seconds over REPS runs, and every run."""
    from repro.simmpi.engine import SimEngine

    walls = []
    for _ in range(REPS):
        engine = SimEngine(ranks)
        t0 = time.monotonic()
        engine.run(_storm, rounds)
        walls.append(time.monotonic() - t0)
    return statistics.median(walls), walls


def _scale_run():
    """Full-telemetry fault-injected P=1024 training step."""
    from repro.dist.train import MLPParams, distributed_mlp_train
    from repro.simmpi.engine import SimEngine
    from repro.simmpi.faults import FaultPlan, LinkFault, Straggler

    cfg = CONFIG["scale"]
    pr, pc = cfg["pr"], cfg["pc"]
    dims = tuple(cfg["dims"])
    batch = pc * 2
    rng = np.random.default_rng(0)
    x = rng.standard_normal((dims[0], 2 * batch))
    y = rng.integers(0, dims[-1], 2 * batch)
    params0 = MLPParams.init(dims, seed=1)
    plan = FaultPlan(
        seed=5,
        stragglers=(Straggler(rank=3, factor=2.0, jitter=0.05),),
        links=(
            LinkFault(
                src=0, dst=1, latency_factor=4.0, bandwidth_factor=2.0,
                t_start=0.0, t_end=1.0,
            ),
        ),
    )
    engine = SimEngine(pr * pc, trace=True, faults=plan)
    t0 = time.monotonic()
    _, losses, sim = distributed_mlp_train(
        params0, x, y, pr=pr, pc=pc, batch=batch, steps=cfg["steps"],
        engine=engine,
    )
    wall = time.monotonic() - t0
    ok = (
        bool(np.isfinite(losses).all())
        and len(sim.clocks) == pr * pc
        and len(engine.tracer.events) > 100 * pr * pc
    )
    return wall, ok


def _bit_identity():
    """Every golden-matrix case reproduces its frozen observation."""
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    from tests.backend_cases import golden, observe_all

    return observe_all() == golden()


def run_simmpi_bench() -> dict:
    small = CONFIG["storm_small"]
    large = CONFIG["storm_large"]
    wall_small, reps_small = _storm_walls(small["ranks"], small["rounds"])
    wall_large, reps_large = _storm_walls(large["ranks"], large["rounds"])
    scale_wall, scale_ok = _scale_run()
    return {
        "schema": BENCH_SCHEMA,
        "config": CONFIG,
        "storm_p64_s": wall_small,
        "storm_p64_reps": reps_small,
        "storm_p512_s": wall_large,
        "storm_p512_reps": reps_large,
        "scale_wall_s": scale_wall,
        "scale_ok": scale_ok,
        "identical": _bit_identity(),
        "ceiling_p64_s": CEILING_P64_S,
        "ceiling_p512_s": CEILING_P512_S,
        "ceiling_s": CEILING_P1024_S,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=BASELINE_PATH)
    parser.add_argument("--update-baseline", action="store_true")
    parser.add_argument(
        "--tolerance", type=float, default=0.0,
        help="extra slack on the committed gates (fraction)",
    )
    args = parser.parse_args(argv)
    if args.tolerance < 0:
        print("bench gate error: tolerance must be >= 0", file=sys.stderr)
        return 2

    record = run_simmpi_bench()
    for key, size in (("p64", "storm_small"), ("p512", "storm_large")):
        print(f"storm P={CONFIG[size]['ranks']:>4}: "
              f"median {record[f'storm_{key}_s']:.3f}s "
              f"(reps {[f'{r:.3f}' for r in record[f'storm_{key}_reps']]})")
    print(f"scale P=1024: full-telemetry faulted step in "
          f"{record['scale_wall_s']:.1f}s")
    print(f"identity    : {'PASS' if record['identical'] else 'FAIL'}")

    if args.update_baseline:
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"baseline    : updated {args.baseline}")
        return 0

    try:
        with open(args.baseline, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"cannot read baseline {args.baseline!r}: {exc}", file=sys.stderr)
        return 2
    if baseline.get("schema") != BENCH_SCHEMA:
        print(f"bad baseline schema {baseline.get('schema')!r}", file=sys.stderr)
        return 2
    if baseline.get("config") != record["config"]:
        print("baseline config does not match this benchmark's config; "
              "re-run with --update-baseline", file=sys.stderr)
        return 2

    slack = 1.0 + args.tolerance
    failures = []
    ceilings = {}
    for key, ranks in (("p64", 64), ("p512", 512)):
        ceilings[key] = float(baseline[f"ceiling_{key}_s"]) * slack
        if record[f"storm_{key}_s"] > ceilings[key]:
            failures.append(
                f"P={ranks} barrier storm took {record[f'storm_{key}_s']:.3f}s "
                f"(median), over the committed ceiling {ceilings[key]:.3f}s"
            )
    ceiling = float(baseline["ceiling_s"]) * slack
    if record["scale_wall_s"] > ceiling:
        failures.append(
            f"P=1024 full-telemetry step took {record['scale_wall_s']:.1f}s, "
            f"over the committed ceiling {ceiling:.1f}s"
        )
    if not record["scale_ok"]:
        failures.append(
            "P=1024 run lost its telemetry or clocks (scale sanity failed)"
        )
    if not record["identical"]:
        failures.append(
            "engine diverged from tests/golden/backend_matrix.json "
            "(values, clocks, failed sets, canonical traces or failure messages)"
        )
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print(f"gate        : PASS (ceilings {ceilings['p64']:.2f}s / "
          f"{ceilings['p512']:.2f}s / {ceiling:.0f}s)")
    return 0


def test_simmpi_gate():
    """Tier-2 hook so `pytest benchmarks/bench_simmpi.py` runs the gate."""
    assert main([]) == 0


if __name__ == "__main__":
    raise SystemExit(main())
