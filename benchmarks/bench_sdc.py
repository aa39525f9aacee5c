"""Guard-overhead gate for the ABFT / SDC defense subsystem.

Runs the shared 2x2 MLP job (``gate_mlp.py``) twice — unguarded and
with ABFT guards on — and gates the guarded/unguarded makespan ratio
against the committed baseline in ``benchmarks/BENCH_sdc.json``.  Both
makespans are *virtual* seconds from the simulator's postal model, so
the ratio is exactly reproducible: the only guard cost in alpha-beta
time is the 8-byte digest escort on every guarded send (checksum folds
are charged zero virtual time, matching the cost model's
``abft.checksum_*`` terms).  The 1.05x ceiling leaves room for that
low single-digit-percent tax.  The gate also re-asserts the headline
invariant that guards never change the math: guarded weights must be
bit-identical to the unguarded run's, and the digest traffic must match
the baseline byte for byte.

Flags and exit codes are :mod:`repro.gate`'s.
"""

import os

from gate_mlp import CONFIG, train

from repro.gate import Check, Gate

# The committed ceiling on guarded/unguarded makespan.  The 8-byte
# digest escorts are tiny next to the block payloads they ride with, so
# the guard tax stays low single-digit percent at this problem size.
MAX_OVERHEAD = 1.05


def run_sdc_bench() -> dict:
    """Measure guarded vs unguarded virtual makespan."""

    def one(sdc):
        weights, _, sim, engine = train(sdc=sdc)
        guard_bytes = sum(
            e.guard_bytes for e in engine.tracer.canonical() if e.op == "send"
        )
        return weights, sim.time, guard_bytes

    plain_w, plain_s, plain_guard = one(None)
    guarded_w, guarded_s, guard_bytes = one("correct")
    assert plain_guard == 0, "unguarded run must carry no digest traffic"
    assert guard_bytes > 0, "guarded run produced no digest traffic"
    return {
        "unguarded_s": plain_s,
        "guarded_s": guarded_s,
        "overhead": guarded_s / plain_s,
        "guard_bytes": guard_bytes,
        "identical": all(
            a.tobytes() == b.tobytes() for a, b in zip(guarded_w, plain_w)
        ),
        "max_overhead": MAX_OVERHEAD,
    }


def summary(record):
    yield "config", record["config"]
    yield "unguarded", f"{record['unguarded_s']:.6f} virtual s"
    yield "guarded", (f"{record['guarded_s']:.6f} virtual s "
                      f"({record['guard_bytes']} digest bytes on the wire)")
    yield "overhead", f"{record['overhead']:.4f}x"


GATE = Gate(
    "repro.sdc.bench/v1",
    checks=(
        Check("flag", "identical",
              "guarded weights diverged bitwise from the unguarded run"),
        Check("ceiling", "overhead",
              "guard overhead {value:.4f}x exceeds the committed ceiling "
              "{limit:.4f}x", "max_overhead"),
        Check("same", "guard_bytes",
              "digest traffic changed: {value} bytes vs baseline {limit} "
              "(guard coverage grew or shrank; update the baseline if intended)"),
    ),
    config=CONFIG,
    measure=run_sdc_bench,
    summary=summary,
    baseline=os.path.join(os.path.dirname(__file__), "BENCH_sdc.json"),
)


def test_sdc_guard_overhead_gate():
    """Tier-2 hook so `pytest benchmarks/bench_sdc.py` runs the gate."""
    assert GATE.main([]) == 0


if __name__ == "__main__":
    raise SystemExit(GATE.main())
