"""Monitor-overhead gate for the live health monitor.

Runs the shared 2x2 MLP job (``gate_mlp.py``) twice — once bare, once
with a :class:`~repro.observe.health.HealthMonitor` attached as the
engine's streaming event sink — and gates the monitored/bare makespan
ratio against the committed baseline in ``benchmarks/BENCH_observe.json``.
Both makespans are *virtual* seconds from the simulator's postal model,
and the monitor is observability-only (it never touches virtual
clocks), so the expected ratio is exactly ``1.0``; the committed
ceiling leaves the same 1.05x headroom as the other gates in case a
future change accidentally couples observation to timing.  The gate
also re-asserts the headline invariant directly: monitored weights,
losses and makespan must be bit-identical to the bare run's, and the
monitor must actually have seen the run (one heartbeat per rank per
step).

Flags and exit codes are :mod:`repro.gate`'s.
"""

import os

from gate_mlp import CONFIG, train

from repro.gate import Check, Gate

# Observation must be free in virtual time: heartbeats are zero-duration
# trace events and the rule engine runs on host threads only.
MAX_OVERHEAD = 1.05


def run_observe_bench() -> dict:
    """Measure monitored vs bare virtual makespan."""
    from repro.observe.health import HealthMonitor

    bare_w, bare_l, bare_sim, _ = train()
    monitor = HealthMonitor()
    mon_w, mon_l, mon_sim, _ = train(metrics=monitor)
    monitor.finish()
    bare_s, mon_s = bare_sim.time, mon_sim.time
    return {
        "bare_s": bare_s,
        "monitored_s": mon_s,
        "overhead": mon_s / bare_s,
        "heartbeats": monitor.heartbeats_seen,
        # One end-of-step heartbeat per rank per step must reach the monitor.
        "expected_heartbeats": CONFIG["pr"] * CONFIG["pc"] * CONFIG["steps"],
        "identical": (
            all(a.tobytes() == b.tobytes() for a, b in zip(mon_w, bare_w))
            and list(mon_l) == list(bare_l)
            and mon_s == bare_s
        ),
        "health_events": len(monitor.events),
        "max_overhead": MAX_OVERHEAD,
    }


def summary(record):
    yield "config", record["config"]
    yield "bare", f"{record['bare_s']:.6f} virtual s"
    yield "monitored", (f"{record['monitored_s']:.6f} virtual s "
                        f"({record['heartbeats']} heartbeats observed)")
    yield "overhead", f"{record['overhead']:.4f}x"


GATE = Gate(
    "repro.observe.bench/v1",
    checks=(
        Check("flag", "identical",
              "monitored run diverged bitwise from the bare run "
              "(weights, losses or makespan changed under observation)"),
        Check("ceiling", "overhead",
              "monitor overhead {value:.4f}x exceeds the committed ceiling "
              "{limit:.4f}x", "max_overhead"),
        Check("at_least", "heartbeats",
              "monitor saw {value} heartbeats, expected at least {limit} "
              "(one per rank per step; did a trainer stop emitting?)",
              "expected_heartbeats"),
    ),
    config=CONFIG,
    measure=run_observe_bench,
    summary=summary,
    baseline=os.path.join(os.path.dirname(__file__), "BENCH_observe.json"),
)


def test_observe_monitor_overhead_gate():
    """Tier-2 hook so `pytest benchmarks/bench_observe.py` runs the gate."""
    assert GATE.main([]) == 0


if __name__ == "__main__":
    raise SystemExit(GATE.main())
