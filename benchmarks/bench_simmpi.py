"""Scheduler wall-clock gate for the discrete-event simmpi engine.

Four claims are gated against the committed baseline in
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

3. **Telemetry overhead ceiling.**  The 8x32 MLP 64-64-32 (B=64, 2
   steps) traced with a ``MetricsRegistry`` sink plus its
   ``mlp_run_record``, over the same training untraced: the ratio of
   the two median walls over ``REPS`` alternating runs must stay under
   the committed ceiling.  The ceiling is the measured ratio times
   1.65, the smaller of the two headroom factors above.

4. **Bit-identity.**  Every case of the engine's golden matrix
   (``tests/backend_cases.py``) is re-run inside the gate and must
   reproduce ``tests/golden/backend_matrix.json`` exactly: values,
   final clocks, failed sets, canonical traces and failure messages.

Flags and exit codes are :mod:`repro.gate`'s.
"""

import os
import statistics
import sys
import time

import numpy as np

from repro.gate import Check, Gate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

REPS = 5

CONFIG = {
    "storm_small": {"ranks": 64, "rounds": 40},
    "storm_large": {"ranks": 512, "rounds": 8},
    "scale": {"pr": 32, "pc": 32, "steps": 1, "dims": [64, 64, 32]},
    "traced": {"pr": 8, "pc": 32, "batch": 64, "steps": 2, "dims": [64, 64, 32]},
    "reps": REPS,
}

# Committed gates: quiet medians 0.29 s (P=64) and 0.82 s (P=512)
# times the headroom of the speedup floors they replace.
CEILING_P64_S = 0.48  # 0.29 s x 1.65
CEILING_P512_S = 1.72  # 0.82 s x 2.1
CEILING_P1024_S = 60.0
CEILING_TRACED_RATIO = 4.75  # measured 2.88x times the 1.65 headroom


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


def _traced_ratio():
    """Median traced wall (registry sink and RunRecord) over median
    untraced wall of the same 8x32 training, and every run's wall."""
    from repro.dist import train
    from repro.simmpi.engine import SimEngine
    from repro.telemetry.metrics import MetricsRegistry

    cfg = CONFIG["traced"]
    shape = dict(pr=cfg["pr"], pc=cfg["pc"], batch=cfg["batch"], steps=cfg["steps"])
    dims = tuple(cfg["dims"])
    params0, x, y = train.mlp_problem(dims, cfg["batch"])
    walls = {False: [], True: []}
    for _ in range(REPS):
        for traced in (False, True):
            engine = SimEngine(
                cfg["pr"] * cfg["pc"], trace=traced,
                metrics=MetricsRegistry() if traced else None,
            )
            t0 = time.monotonic()
            _, _, sim = train.distributed_mlp_train(params0, x, y, engine=engine, **shape)
            if traced:
                train.mlp_run_record(engine, sim, dims=dims, **shape)
            walls[traced].append(time.monotonic() - t0)
    ratio = statistics.median(walls[True]) / statistics.median(walls[False])
    return ratio, walls[True], walls[False]


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
    ratio, traced_reps, untraced_reps = _traced_ratio()
    return {
        "storm_p64_s": wall_small,
        "storm_p64_reps": reps_small,
        "storm_p512_s": wall_large,
        "storm_p512_reps": reps_large,
        "scale_wall_s": scale_wall,
        "scale_ok": scale_ok,
        "traced_ratio": ratio,
        "traced_reps": traced_reps,
        "untraced_reps": untraced_reps,
        "identical": _bit_identity(),
        "ceiling_p64_s": CEILING_P64_S,
        "ceiling_p512_s": CEILING_P512_S,
        "ceiling_s": CEILING_P1024_S,
        "ceiling_traced_ratio": CEILING_TRACED_RATIO,
    }


def summary(record):
    for key, size in (("p64", "storm_small"), ("p512", "storm_large")):
        yield f"storm P={CONFIG[size]['ranks']:>4}", (
            f"median {record[f'storm_{key}_s']:.3f}s "
            f"(reps {[f'{r:.3f}' for r in record[f'storm_{key}_reps']]})")
    yield "scale P=1024", (f"full-telemetry faulted step in "
                           f"{record['scale_wall_s']:.1f}s")
    yield "traced/bare", (f"{record['traced_ratio']:.2f}x on 8x32 (traced reps "
                          f"{[f'{r:.2f}' for r in record['traced_reps']]}, bare reps "
                          f"{[f'{r:.2f}' for r in record['untraced_reps']]})")
    yield "identity", "PASS" if record["identical"] else "FAIL"


GATE = Gate(
    "repro.simmpi.bench/v3",
    checks=(
        Check("ceiling", "storm_p64_s",
              "P=64 barrier storm took {value:.3f}s (median), over the "
              "committed ceiling {limit:.3f}s", "ceiling_p64_s"),
        Check("ceiling", "storm_p512_s",
              "P=512 barrier storm took {value:.3f}s (median), over the "
              "committed ceiling {limit:.3f}s", "ceiling_p512_s"),
        Check("ceiling", "scale_wall_s",
              "P=1024 full-telemetry step took {value:.1f}s, over the "
              "committed ceiling {limit:.1f}s", "ceiling_s"),
        Check("ceiling", "traced_ratio",
              "8x32 traced run with registry and RunRecord took {value:.2f}x "
              "the untraced wall, over the committed ceiling {limit:.2f}x",
              "ceiling_traced_ratio"),
        Check("flag", "scale_ok",
              "P=1024 run lost its telemetry or clocks (scale sanity failed)"),
        Check("flag", "identical",
              "engine diverged from tests/golden/backend_matrix.json (values, "
              "clocks, failed sets, canonical traces or failure messages)"),
    ),
    config=CONFIG,
    measure=run_simmpi_bench,
    summary=summary,
    baseline=os.path.join(os.path.dirname(__file__), "BENCH_simmpi.json"),
)


def test_simmpi_gate():
    """Tier-2 hook so `pytest benchmarks/bench_simmpi.py` runs the gate."""
    assert GATE.main([]) == 0


if __name__ == "__main__":
    raise SystemExit(GATE.main())
