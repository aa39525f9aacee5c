"""Robustness scenarios: the runs behind ``repro faults|sdc|chaos|watch``.

Each scenario builds a toy 1.5D MLP problem, runs it on ``simmpi``
under its fault plans, and judges the outcome: :func:`faults_demo`
(elastic training under one fault plan), :func:`sdc_gauntlet` (single
bit flips in every GEMM site and payload path), :func:`chaos_soak`
(erasure-coded against replicated checkpoints under crash, cascade,
bit-flip and straggler plans) and :func:`watch_run` (the health rules).

Each returns its per-trial rows, the JSON payload the CLI prints, and a
:class:`Verdict` whose ``code`` is the command's exit code, looked up in
the one :data:`SEVERITY` table.  The per-trial decisions
:func:`sdc_outcome` and :func:`chaos_outcome` are pure functions.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.dist.abft import make_guard
from repro.dist.elastic import (
    ElasticResult,
    elastic_mlp_train,
    elastic_run_record,
    replan_grid,
)
from repro.dist.train import (
    distributed_mlp_train,
    mlp_problem,
    mlp_run_record,
    serial_mlp_train,
)
from repro.errors import ConfigurationError, RankFailedError, ReproError, SDCError
from repro.machine.params import cori_knl
from repro.observe.health import HealthConfig, HealthReport, evaluate_health
from repro.simmpi.engine import SimEngine
from repro.simmpi.faults import (
    BitFlipFault,
    Cascade,
    Crash,
    FaultPlan,
    LinkFault,
    MessageDrop,
    Straggler,
)

__all__ = [
    "SEVERITY",
    "Verdict",
    "ScenarioResult",
    "faults_demo",
    "SDC_GAUNTLET",
    "sdc_outcome",
    "sdc_gauntlet",
    "ChaosTrial",
    "chaos_trials",
    "ckpt_equal",
    "chaos_outcome",
    "chaos_soak",
    "WATCH_SCENARIOS",
    "watch_run",
]

#: The toy MLP of the elastic scenarios (faults, chaos, watch).
DIMS = (8, 10, 6)
#: Global batch size of every scenario.
BATCH = 8
#: Steps between checkpoints in every elastic scenario.
CHECKPOINT_EVERY = 2
#: The grid of the chaos soak and of the elastic watch scenarios.
CHAOS_GRID = (2, 4)
#: The SDC gauntlet's toy MLP and grid.
SDC_DIMS = (12, 10, 8)
SDC_GRID = (2, 2)

#: Exit code of every outcome that is not a pass; any other outcome is 0.
SEVERITY = {
    # Corruption or divergence that nobody declared.
    "escaped": 2,
    "no-fire": 2,
    "SILENT-DIVERGENCE": 2,
    "crit": 2,
    # Failures that were caught and declared.
    "degraded": 1,
    "detected-unrecovered": 1,
    "declared-failed": 1,
    "declared-degraded": 1,
    "warn": 1,
}


@dataclasses.dataclass(frozen=True)
class Verdict:
    """A scenario's judgement: ``code`` is the exit code, ``text`` says why."""

    code: int
    text: str

    @classmethod
    def judge(cls, outcomes: Iterable[Optional[str]], texts: Sequence[str]) -> "Verdict":
        """The worst :data:`SEVERITY` of ``outcomes``, explained by ``texts[code]``."""
        code = max((SEVERITY.get(o, 0) for o in outcomes), default=0)
        return cls(code, texts[code])


@dataclasses.dataclass
class ScenarioResult:
    """A judged scenario: per-trial ``rows``, the JSON ``payload`` the CLI
    prints (``None`` without one), ``record()`` building the RunRecord of
    the last completed run, and ``run``, the faults run's ElasticResult or
    the watch run's HealthReport."""

    verdict: Verdict
    rows: List[Any] = dataclasses.field(default_factory=list)
    payload: Optional[Dict[str, Any]] = None
    record: Optional[Callable[[], Any]] = None
    run: Any = None


def _elastic_run(
    problem, plan, *, pr, pc, steps, trace=True, metrics=None, meta=None,
    health_config=None, **options,
) -> Tuple[ElasticResult, Callable[[], Any]]:
    """Train elastically under ``plan``; returns ``(result, record)``.

    ``record()`` builds the run's RunRecord with the same ``options``
    (``ckpt_mode``, ``parity``, ``sdc``) the run trained with.
    """
    engine = SimEngine(
        pr * pc, trace=trace, metrics=metrics, faults=plan, supervise=True
    )
    result = elastic_mlp_train(
        *problem, pr=pr, pc=pc, batch=BATCH, steps=steps,
        checkpoint_every=CHECKPOINT_EVERY, engine=engine, **options,
    )
    record = functools.partial(
        elastic_run_record, result, batch=BATCH, steps=steps,
        checkpoint_every=CHECKPOINT_EVERY, meta=meta,
        health_config=health_config, **options,
    )
    return result, record


def faults_demo(
    ranks: int = 4,
    steps: int = 8,
    seed: int = 0,
    plan: Optional[FaultPlan] = None,
    sdc: Optional[str] = None,
) -> ScenarioResult:
    """Train elastically on ``ranks`` ranks under ``plan`` and judge the run.

    The default plan crashes rank 1 mid-run, degrades one link and slows
    rank 0; ``sdc`` ABFT-guards the run.  Exit code 0: clean or fully
    recovered; 1: the run failed, or an injected flip escaped into the
    weights.  ``rows`` is the one trial, ``[{"plan": plan, "grid": (pr, pc)}]``.
    """
    if ranks < 2:
        raise ConfigurationError("faults demo needs at least 2 ranks")
    if plan is None:
        plan = FaultPlan(
            seed=seed,
            crashes=(Crash(rank=1, at_step=max(1, steps // 2)),),
            links=(LinkFault(src=0, dst=2, latency_factor=4.0, bandwidth_factor=0.5),),
            stragglers=(Straggler(rank=0, factor=1.3),),
        )
    problem = mlp_problem(DIMS, BATCH, seed)
    pr, pc = replan_grid(ranks, DIMS, BATCH, cori_knl())
    rows = [{"plan": plan, "grid": (pr, pc)}]
    try:
        result, record = _elastic_run(problem, plan, pr=pr, pc=pc, steps=steps, sdc=sdc)
    except ReproError as exc:
        return ScenarioResult(
            Verdict(SEVERITY["degraded"], f"run failed under the fault plan: {exc}"), rows
        )
    injector = result.engine.injector
    slack = injector.straggler_slack() if injector is not None and plan.stragglers else {}
    ref, _ = serial_mlp_train(*problem, batch=BATCH, steps=steps)
    dev = max(
        float(np.max(np.abs(w - r))) for w, r in zip(result.weights, ref.weights)
    )
    ops = [e.op for e in result.engine.tracer.canonical()]
    escaped = ops.count("fault.bitflip") - ops.count("fault.sdc_detected")
    verdict = Verdict.judge(
        ["degraded"] if escaped > 0 else [],
        (
            "clean or fully recovered",
            f"{escaped} injected bit flip(s) escaped undetected (run unguarded, "
            "or guard coverage missed the site)",
        ),
    )
    payload = {
        "schema": "repro.cli.faults/v1",
        "config": {
            "ranks": ranks, "grid": [pr, pc],
            "dims": list(DIMS), "batch": BATCH,
            "steps": steps, "seed": seed,
            "sdc": sdc,
        },
        "plan": {
            "crashes": len(plan.crashes),
            "transients": len(plan.transients),
            "drops": len(plan.drops),
            "links": len(plan.links),
            "stragglers": len(plan.stragglers),
            "bitflips": len(plan.bitflips),
            "seed": plan.seed,
        },
        "recovered": result.recovered,
        "grids": [list(g) for g in result.grids],
        "restore_steps": list(result.restore_steps),
        "degraded_steps": list(result.degraded_steps),
        "failed_ranks": sorted(result.sim.failed),
        "straggler_slack_s": {str(r): s for r, s in sorted(slack.items())},
        "final_loss": float(result.losses[-1]),
        "max_weight_dev": dev,
        "escaped_flips": escaped,
        "dropped": result.engine.tracer.dropped,
        "exit_code": verdict.code,
    }
    return ScenarioResult(verdict, rows, payload, record, result)


#: The ``repro sdc`` gauntlet's fault matrix: every GEMM site of the
#: 1.5D trainer (forward, dX, dW; both layers) plus in-flight payload
#: corruption, across ranks, steps and bit positions — including
#: high-exponent bits whose escape is catastrophic when unguarded.
SDC_GAUNTLET = (
    ("fwd/L0", dict(rank=0, target="matmul", layer=0, step=0, gemm="fwd", element=1, bit=3)),
    ("fwd/L1", dict(rank=2, target="matmul", layer=1, step=1, gemm="fwd", element=5, bit=62)),
    ("bwd_dx/L1", dict(rank=1, target="matmul", layer=1, step=2, gemm="bwd_dx", element=2, bit=31)),
    ("bwd_dw/L0", dict(rank=3, target="matmul", layer=0, step=1, gemm="bwd_dw", element=7, bit=52)),
    ("bwd_dw/L1", dict(rank=0, target="matmul", layer=1, step=0, gemm="bwd_dw", element=0, bit=62)),
    ("payload/r0", dict(rank=0, target="payload", send_index=4, element=11, bit=40)),
    ("payload/r1", dict(rank=1, target="payload", send_index=0, element=0, bit=62)),
    ("payload/r3", dict(rank=3, target="payload", send_index=3, element=3, bit=50)),
)


def sdc_outcome(
    injected: int, identical: bool, corrected: int = 0, recomputed: int = 0
) -> str:
    """Judge one completed gauntlet run.

    ``injected`` is the number of flips that fired, ``identical`` whether
    the final weights equal the clean run's bit for bit, and
    ``corrected``/``recomputed`` the guard's repair counts (0 unguarded).
    """
    if injected == 0:
        return "no-fire"
    if not identical:
        return "escaped"
    if corrected:
        return "corrected"
    if recomputed:
        return "recomputed"
    return "benign"


def sdc_gauntlet(
    policy: str = "correct", no_guard: bool = False, steps: int = 3, seed: int = 0
) -> ScenarioResult:
    """Run every :data:`SDC_GAUNTLET` plan and compare against a clean run.

    ``rows`` are ``(plan name, outcome)`` pairs.  Exit code 0: every flip
    was detected and recovered bit-identically.  1: all corruption was
    detected, but some runs could not recover.  2: corruption escaped
    into the weights, or a plan failed to fire.
    """
    pr, pc = SDC_GRID
    problem = mlp_problem(SDC_DIMS, BATCH, seed)

    def run(plan=None, guard=None):
        engine = SimEngine(pr * pc, trace=True, faults=plan)
        weights, _, sim = distributed_mlp_train(
            *problem, pr=pr, pc=pc, batch=BATCH, steps=steps,
            engine=engine, sdc=guard,
        )
        return [w.tobytes() for w in weights], engine, sim

    clean, _, _ = run()
    rows: List[Tuple[str, str]] = []
    record = None
    for name, spec in SDC_GAUNTLET:
        plan = FaultPlan(seed=seed, bitflips=(BitFlipFault(**spec),))
        guard = None if no_guard else make_guard(policy)
        try:
            weights, engine, sim = run(plan, guard)
        except (RankFailedError, SDCError):
            # The guard refused to continue (detect policy, or retries
            # exhausted): corruption never reached the weights, but the
            # run did not complete either.
            rows.append((name, "detected-unrecovered"))
            continue
        if guard is None:
            injected = sum(1 for e in engine.tracer.canonical() if e.op == "fault.bitflip")
            rows.append((name, sdc_outcome(injected, weights == clean)))
        else:
            m = guard.monitor
            rows.append((name, sdc_outcome(
                m["injected"], weights == clean, m["corrected"], m["recomputed"]
            )))
        record = functools.partial(
            mlp_run_record, engine, sim, dims=SDC_DIMS, pr=pr, pc=pc,
            batch=BATCH, steps=steps, sdc=guard, meta={"gauntlet": "sdc"},
        )
    verdict = Verdict.judge(
        (outcome for _, outcome in rows),
        (
            "every injected flip was detected and recovered; all final "
            "weights bit-identical to the clean run",
            "all corruption detected, but some runs could not recover",
            "corruption escaped into the weights (or a plan failed to fire)",
        ),
    )
    return ScenarioResult(verdict, rows, record=record)


@dataclasses.dataclass(frozen=True)
class ChaosTrial:
    """One chaos trial: a fault plan, its parity budget and SDC policy."""

    name: str
    plan: FaultPlan
    parity: int
    sdc: Optional[str] = None


def chaos_trials(
    trials: int = 3,
    steps: int = 8,
    parity: int = 1,
    seed: int = 0,
    over_parity: bool = False,
) -> List[ChaosTrial]:
    """The soak's trial table: the fixed gauntlet, ``trials`` random crashes,
    and with ``over_parity`` the losses beyond the parity budget."""
    if steps < 4:
        raise ConfigurationError("chaos needs at least 4 steps")
    mid = max(2, steps // 2)

    def plan(**faults) -> FaultPlan:
        return FaultPlan(seed=seed, **faults)

    flip = BitFlipFault(
        rank=0, target="matmul", layer=0, step=0, gemm="fwd", element=1, bit=40
    )
    # The deterministic gauntlet: every failure archetype the checkpoint
    # subsystem claims to survive.
    table = [
        ChaosTrial("clean", plan(), parity),
        ChaosTrial("crash-1", plan(crashes=(Crash(1, at_step=mid),)), parity),
        ChaosTrial(
            "crash-seq-2",
            plan(crashes=(
                Crash(1, at_step=max(1, steps // 3)),
                Crash(3, at_step=max(2, (2 * steps) // 3)),
            )),
            parity,
        ),
        # Ranks 1 and 2 share a row stripe, so this is a genuine
        # 2-concurrent-loss test of a 2-shard parity budget.
        ChaosTrial(
            "crash-concurrent-2-r2",
            plan(crashes=(Crash(1, at_step=mid), Crash(2, at_step=mid))),
            2,
        ),
        # Same double crash but across *different* row stripes: each
        # stripe loses one chunk, so parity 1 suffices.
        ChaosTrial(
            "crash-concurrent-2-split-r1",
            plan(crashes=(Crash(1, at_step=mid), Crash(5, at_step=mid))),
            1,
        ),
        # Two total losses (one mid-training, one mid-recovery), so this
        # needs a 2-shard parity budget to recover exactly.
        ChaosTrial(
            "cascade-r2",
            plan(crashes=(Crash(1, at_step=mid),), cascades=(Cascade(2, at_recovery=1),)),
            2,
        ),
        ChaosTrial(
            "bitflip-crash",
            plan(crashes=(Crash(2, at_step=mid),), bitflips=(flip,)),
            parity,
            "correct",
        ),
        ChaosTrial(
            "straggler-crash",
            plan(crashes=(Crash(3, at_step=mid),), stragglers=(Straggler(rank=0, factor=1.5),)),
            parity,
        ),
    ]
    pr, pc = CHAOS_GRID
    plan_rng = np.random.default_rng(seed + 1)
    for t in range(trials):
        crash = Crash(
            int(plan_rng.integers(0, pr * pc)), at_step=int(plan_rng.integers(1, steps))
        )
        table.append(ChaosTrial(f"random-{t}", plan(crashes=(crash,)), parity))
    if over_parity:
        table += [
            # Two concurrent losses in one row stripe with a single
            # parity shard: unrecoverable past step 0 by design.
            ChaosTrial(
                "over-parity-2-r1",
                plan(crashes=(Crash(1, at_step=mid), Crash(2, at_step=mid))),
                1,
            ),
            ChaosTrial(
                "cascade-r1",
                plan(crashes=(Crash(1, at_step=mid),), cascades=(Cascade(2, at_recovery=1),)),
                1,
            ),
            ChaosTrial("drop", plan(drops=(MessageDrop(rank=0, send_index=5),)), parity),
        ]
    return table


def _same_bytes(xs, ys) -> bool:
    return len(xs) == len(ys) and all(p.tobytes() == q.tobytes() for p, q in zip(xs, ys))


def ckpt_equal(a, b) -> bool:
    """Whether two :class:`~repro.dist.elastic.Checkpoint` s hold identical bits."""
    if a.step != b.step or tuple(a.losses) != tuple(b.losses):
        return False
    if not _same_bytes(a.weights, b.weights):
        return False
    if a.velocity is None or b.velocity is None:
        return a.velocity is None and b.velocity is None
    return _same_bytes(a.velocity, b.velocity)


def chaos_outcome(erasure, replicate, oracle) -> Tuple[str, str]:
    """``(outcome, detail)`` of one chaos trial.

    ``erasure`` and ``replicate`` are the trial's
    :class:`~repro.dist.elastic.ElasticResult` under each checkpoint
    mode, or the :class:`~repro.errors.ReproError` the run raised.
    ``oracle`` is one clean replicated run: its store holds the full
    original-grid checkpoint at every take step.  The pre-crash
    trajectory of every faulted run is bit-identical to it, so any first
    restore must reproduce the oracle's checkpoint bit-exactly.
    """
    if isinstance(erasure, Exception):
        # The run itself refused to continue — a *declared* failure,
        # never a silently wrong answer.
        return "declared-failed", str(erasure)
    if erasure.degraded_steps:
        return "declared-degraded", (
            f"restored step(s) {erasure.restore_steps} "
            f"(degraded at {erasure.degraded_steps})"
        )
    if isinstance(replicate, Exception):
        return "declared-failed", f"reference run: {replicate}"
    if erasure.grids == replicate.grids and erasure.restore_steps == replicate.restore_steps:
        # Identical recovery trajectories: the whole runs must be
        # bit-for-bit interchangeable.
        same = _same_bytes(erasure.weights, replicate.weights)
        outcome = "exact" if same else "SILENT-DIVERGENCE"
        detail = (
            f"recovered from {sorted(erasure.sim.failed)} via "
            f"step(s) {erasure.restore_steps}"
            if erasure.recovered else ""
        )
        return outcome, detail
    # Trajectories diverged.  Legitimate only one way: a crash landing on
    # a take step tears the replicated all-gather but not the purely
    # local erasure encode, so erasure restores a *newer* step.  Then
    # the restored state must still match the clean oracle's checkpoint
    # bit-exactly, and both modes must converge to the same weights up
    # to reduction order.
    ahead = len(erasure.restore_steps) == len(replicate.restore_steps) and all(
        es >= rs for es, rs in zip(erasure.restore_steps, replicate.restore_steps)
    )
    first = erasure.restored[0] if erasure.restored else None
    holding = oracle.store.get(first.step) if first is not None else None
    first_ok = holding is not None and ckpt_equal(first, holding.checkpoint)
    close = all(
        np.allclose(a, b, atol=1e-9) for a, b in zip(erasure.weights, replicate.weights)
    )
    if ahead and first_ok and close:
        return "exact-ahead", (
            f"erasure restored step(s) {erasure.restore_steps} vs "
            f"replication's {replicate.restore_steps}; restored state "
            "bit-identical to the clean oracle"
        )
    return "SILENT-DIVERGENCE", (
        f"erasure restored {erasure.restore_steps} (grids "
        f"{erasure.grids}) vs replication {replicate.restore_steps} "
        f"(grids {replicate.grids}); ahead={ahead} "
        f"oracle-match={first_ok} converged={close}"
    )


def chaos_soak(
    trials: int = 3,
    steps: int = 8,
    parity: int = 1,
    seed: int = 0,
    over_parity: bool = False,
    *,
    trace: bool = False,
    on_trial: Optional[Callable[..., None]] = None,
) -> ScenarioResult:
    """Run every :func:`chaos_trials` trial with erasure-coded and with
    replicated checkpoints, and judge each by :func:`chaos_outcome`.

    ``on_trial(trial, row, record)`` is called as each trial finishes;
    ``record()`` builds the erasure run's RunRecord (``None`` if that run
    failed; needs ``trace=True``).  Exit code 0: all exact, 1: losses
    beyond the parity budget declared, 2: a silent divergence.  An error
    of the clean oracle run propagates.
    """
    table = chaos_trials(trials, steps, parity, seed, over_parity)
    pr, pc = CHAOS_GRID
    problem = mlp_problem(DIMS, BATCH, seed)

    def run(mode, trial):
        try:
            return _elastic_run(
                problem, trial.plan, pr=pr, pc=pc, steps=steps, trace=trace,
                meta={"chaos_trial": trial.name}, ckpt_mode=mode,
                parity=trial.parity, sdc=trial.sdc,
            )
        except ReproError as exc:
            return exc, None

    oracle, _ = _elastic_run(
        problem, None, pr=pr, pc=pc, steps=steps, trace=trace,
        ckpt_mode="replicate", parity=parity,
    )
    rows = []
    for trial in table:
        erasure, record = run("erasure", trial)
        replicate, _ = run("replicate", trial)
        outcome, detail = chaos_outcome(erasure, replicate, oracle)
        ran = record is not None
        row = {
            "trial": trial.name,
            "parity": trial.parity,
            "outcome": outcome,
            "detail": detail,
            "failed_ranks": sorted(erasure.sim.failed) if ran else None,
            "restore_steps": erasure.restore_steps if ran else None,
            "degraded_steps": erasure.degraded_steps if ran else None,
            "dropped": erasure.engine.tracer.dropped if ran else 0,
        }
        rows.append(row)
        if on_trial is not None:
            on_trial(trial, row, record)
    verdict = Verdict.judge(
        (row["outcome"] for row in rows),
        (
            "every trial recovered bit-identically to the replicated reference",
            "every loss beyond the parity budget was declared; nothing "
            "diverged silently",
            "erasure-coded recovery silently diverged from the replicated "
            "reference",
        ),
    )
    payload = {
        "config": {
            "dims": list(DIMS), "pr": pr, "pc": pc, "batch": BATCH,
            "steps": steps, "parity": parity,
            "seed": seed, "trials": len(table),
            "over_parity": bool(over_parity),
        },
        "trials": rows,
        "dropped": sum(row["dropped"] for row in rows),
        "exit_code": verdict.code,
        "verdict": verdict.text,
    }
    return ScenarioResult(verdict, rows, payload)


#: ``repro watch`` scenarios, each chosen so its advertised rule fires:
#: the faults of the elastic ones as :class:`FaultPlan` keywords, given
#: the crash step; ``None`` runs the plain 1.5D trainer.
WATCH_SCENARIOS: Dict[str, Optional[Callable[[int], Dict[str, tuple]]]] = {
    "clean": None,
    "straggler": lambda mid: {"stragglers": (Straggler(rank=0, factor=2.0),)},
    "crash": lambda mid: {"crashes": (Crash(rank=1, at_step=mid),)},
    # Two concurrent losses in one stripe, with parity 1.
    "degrade": lambda mid: {
        "crashes": (Crash(rank=1, at_step=mid), Crash(rank=2, at_step=mid))
    },
    # Deliberately unstable learning rate: the loss blows up past 2x best.
    "diverge": None,
}


def watch_run(
    scenario: str = "straggler",
    *,
    steps: int = 8,
    seed: int = 0,
    health_config: Optional[HealthConfig] = None,
    sink=None,
) -> ScenarioResult:
    """Run one :data:`WATCH_SCENARIOS` scenario and judge its health.

    ``sink`` is the engine's live metrics sink (e.g. a HealthMonitor); the
    verdict and the ``rows`` (health events) come from the deterministic
    replay of the trace instead.  Exit code 0: healthy, 1: warnings,
    2: critical.
    """
    problem = mlp_problem(DIMS, BATCH, seed)
    meta = {"watch_scenario": scenario}
    faults = WATCH_SCENARIOS[scenario]
    if faults is None:
        pr = pc = 2
        engine = SimEngine(pr * pc, trace=True, metrics=sink)
        _, _, sim = distributed_mlp_train(
            *problem, pr=pr, pc=pc, batch=BATCH, steps=steps,
            lr=40.0 if scenario == "diverge" else 0.05, engine=engine,
        )
        config = {"scenario": scenario, "steps": steps}
        record = functools.partial(
            mlp_run_record, engine, sim, dims=DIMS, pr=pr, pc=pc, batch=BATCH,
            steps=steps, meta=meta, health_config=health_config,
        )
    else:
        pr, pc = CHAOS_GRID
        parity = 1
        plan = FaultPlan(seed=seed, **faults(max(1, steps // 2)))
        result, record = _elastic_run(
            problem, plan, pr=pr, pc=pc, steps=steps, metrics=sink, meta=meta,
            health_config=health_config, parity=parity,
        )
        engine, sim = result.engine, result.sim
        config = {"scenario": scenario, "steps": steps, "parity": parity}
    report: HealthReport = evaluate_health(engine.tracer.canonical(), health_config)
    verdict = Verdict.judge([report.worst], ("healthy", "WARN", "CRIT"))
    payload = {
        "schema": "repro.cli.watch/v1",
        "scenario": scenario,
        "config": dict(config, grid=f"{pr}x{pc}", seed=seed),
        "health": report.to_dict(),
        "worst": report.worst,
        "makespan_s": max(sim.clocks) if sim.clocks else 0.0,
        "dropped": engine.tracer.dropped,
        "exit_code": verdict.code,
    }
    return ScenarioResult(verdict, list(report.events), payload, record, report)
