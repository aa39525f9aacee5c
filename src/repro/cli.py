"""Command-line interface: ``repro list`` / ``repro run <id> [--out DIR]``.

Examples::

    repro list                      # enumerate experiments
    repro run fig7                  # print Fig. 7's tables and bars
    repro run all --out results/    # regenerate everything, export files
    repro summary                   # network + machine summary
    repro best --batch 2048 --processes 512        # optimizer front-end
    repro best -B 512 -P 4096 --network vgg16 --max-memory-mb 256
    repro bench --repeat 3 --out BENCH_search.json   # engine perf gate
    repro trace --experiment fig7 --pr 4 --pc 2 --out trace-out --assert-exact
    repro trace --traffic --record run.json          # analysis + RunRecord
    repro diff benchmarks/RECORD_baseline.json run.json   # regression gate
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments.common import default_setting
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.report.export import export_results, write_text

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Integrated Model, Batch, and Domain Parallelism "
            "in Training Neural Networks' (SPAA 2018)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(run=_run_list)

    run_p = sub.add_parser("run", help="run one experiment (or 'all')")
    run_p.set_defaults(run=_run_run)
    run_p.add_argument("experiment", help="experiment id from 'repro list', or 'all'")
    run_p.add_argument("--out", default=None, help="directory for txt/csv/json export")
    run_p.add_argument("--quiet", action="store_true", help="suppress stdout rendering")

    sub.add_parser(
        "summary", help="print the Table-1 setting summary"
    ).set_defaults(run=_run_summary)

    best_p = sub.add_parser(
        "best", help="find the best parallelization strategy for (network, B, P)"
    )
    best_p.set_defaults(run=_run_best)
    best_p.add_argument("-B", "--batch", type=int, required=True, help="global batch size")
    best_p.add_argument("-P", "--processes", type=int, required=True, help="process count")
    best_p.add_argument(
        "--network",
        default="alexnet",
        choices=["alexnet", "vgg16", "resnet_like", "mlp"],
        help="network spec (default: alexnet)",
    )
    best_p.add_argument(
        "--max-memory-mb",
        type=float,
        default=None,
        help="per-process memory cap in MB (Sec. 4 constraint)",
    )
    best_p.add_argument(
        "--max-pc",
        type=int,
        default=None,
        help="cap on batch-parallel width (large-batch accuracy concern)",
    )
    best_p.add_argument(
        "--overlap",
        action="store_true",
        help="assume perfect comm/backprop overlap (Fig. 8)",
    )
    best_p.add_argument(
        "--plan",
        action="store_true",
        help="print the ordered per-iteration communication schedule",
    )
    best_p.add_argument(
        "--serial",
        action="store_true",
        help="use the serial optimizer instead of the memoized search engine",
    )
    best_p.add_argument(
        "--cache-stats",
        action="store_true",
        help="print search-engine cache hit/miss statistics",
    )

    bench_p = sub.add_parser(
        "bench",
        help=(
            "benchmark the memoized search engine against the serial "
            "optimizer and gate on regressions vs the committed baseline"
        ),
    )
    bench_p.set_defaults(run=_run_bench)
    bench_p.add_argument(
        "--points",
        default=None,
        help="comma-separated process counts (default: 8,64,256,512 — Fig. 7)",
    )
    bench_p.add_argument(
        "-B", "--batch", type=int, default=None,
        help="global batch size (default: 2048)",
    )
    bench_p.add_argument(
        "--jobs", type=int, default=None,
        help="sweep worker processes (0 = one per CPU; default: in-process)",
    )
    bench_p.add_argument(
        "--repeat", type=int, default=3,
        help="timing repetitions, best-of is reported (default: 3)",
    )
    bench_p.add_argument(
        "--baseline", default="benchmarks/BENCH_search.json",
        help="committed baseline record to gate against",
    )
    bench_p.add_argument(
        "--out", default=None,
        help="write the measured BENCH_search.json record to this path",
    )
    bench_p.add_argument(
        "--tolerance", type=float, default=None,
        help="allowed relative speedup regression vs baseline (default: 0.2)",
    )
    bench_p.add_argument(
        "--update-baseline", action="store_true",
        help="overwrite the baseline with this run's record (skips the gate)",
    )
    bench_p.add_argument(
        "--no-compare", action="store_true",
        help="measure and report only; skip the baseline gate",
    )
    bench_p.add_argument(
        "--json", action="store_true",
        help="emit one machine-readable JSON object instead of tables",
    )

    faults_p = sub.add_parser(
        "faults",
        help="fault-injection demo: crash a rank mid-training, shrink, recover",
    )
    faults_p.set_defaults(run=_run_faults)
    faults_p.add_argument(
        "--plan",
        default=None,
        help="JSON FaultPlan file (default: a built-in demo plan)",
    )
    faults_p.add_argument(
        "--ranks", type=int, default=4, help="world size (default 4)"
    )
    faults_p.add_argument(
        "--steps", type=int, default=8, help="training steps (default 8)"
    )
    faults_p.add_argument(
        "--seed", type=int, default=0, help="data/init seed (default 0)"
    )
    faults_p.add_argument(
        "--width", type=int, default=72, help="timeline width in columns"
    )
    faults_p.add_argument(
        "--record",
        default=None,
        help="write the run's versioned RunRecord JSON to this path",
    )
    faults_p.add_argument(
        "--sdc",
        default=None,
        choices=["detect", "correct", "recompute"],
        help="ABFT-guard the run against the plan's bit flips",
    )
    faults_p.add_argument(
        "--json", action="store_true",
        help="emit one machine-readable JSON object instead of tables",
    )

    sdc_p = sub.add_parser(
        "sdc",
        help=(
            "silent-data-corruption gauntlet: inject single bit flips into "
            "every GEMM site and payload path, verify the ABFT guards "
            "recover bit-identically (exit 0), detect without recovery "
            "(exit 1), or let corruption escape (exit 2)"
        ),
    )
    sdc_p.set_defaults(run=_run_sdc)
    sdc_p.add_argument(
        "--policy",
        default="correct",
        choices=["detect", "correct", "recompute"],
        help="recovery policy for the guarded runs (default: correct)",
    )
    sdc_p.add_argument(
        "--no-guard",
        action="store_true",
        help="run the gauntlet unguarded (negative control: flips escape)",
    )
    sdc_p.add_argument(
        "--steps", type=int, default=3, help="training steps per run (default 3)"
    )
    sdc_p.add_argument(
        "--seed", type=int, default=0, help="data/init seed (default 0)"
    )
    sdc_p.add_argument(
        "--record",
        default=None,
        help="write the last run's versioned RunRecord JSON to this path",
    )

    chaos_p = sub.add_parser(
        "chaos",
        help=(
            "chaos soak: run a gauntlet of crash/cascade/bit-flip/straggler "
            "fault plans against erasure-coded checkpoints and verify every "
            "survivable failure recovers bit-identically to full replication "
            "(exit 0), every unsurvivable one is *declared* (exit 1), and "
            "nothing ever diverges silently (exit 2)"
        ),
    )
    chaos_p.set_defaults(run=_run_chaos)
    chaos_p.add_argument(
        "--trials",
        type=int,
        default=3,
        help="extra randomized single-crash trials after the gauntlet (default 3)",
    )
    chaos_p.add_argument(
        "--steps", type=int, default=8, help="training steps per run (default 8)"
    )
    chaos_p.add_argument(
        "--parity",
        type=int,
        default=1,
        help="parity shards per stripe for the baseline trials (default 1)",
    )
    chaos_p.add_argument(
        "--seed", type=int, default=0, help="data/init/plan seed (default 0)"
    )
    chaos_p.add_argument(
        "--over-parity",
        action="store_true",
        help=(
            "include trials that exceed the parity budget (concurrent losses "
            "> r, dropped messages): these must be *declared*, so the sweep "
            "exits 1 by design"
        ),
    )
    chaos_p.add_argument(
        "--out",
        default=None,
        help=(
            "directory for per-trial fault plans, RunRecords and the "
            "chaos_summary.json verdict"
        ),
    )
    chaos_p.add_argument(
        "--json", action="store_true",
        help="emit the chaos_summary payload as JSON on stdout",
    )

    trace_p = sub.add_parser(
        "trace",
        help=(
            "run a traced 1.5D training job, audit measured bytes against "
            "the Eq. 3/4/8 cost model, export a Chrome trace"
        ),
    )
    trace_p.set_defaults(run=_run_trace)
    trace_p.add_argument(
        "--experiment",
        default="mlp",
        choices=["mlp", "fig7"],
        help="network preset: 'mlp' (tiny) or 'fig7' (scaled-down AlexNet FC stack)",
    )
    trace_p.add_argument("--pr", type=int, default=2, help="model-parallel rows")
    trace_p.add_argument("--pc", type=int, default=2, help="batch-parallel columns")
    trace_p.add_argument("--batch", type=int, default=16, help="global batch size")
    trace_p.add_argument("--steps", type=int, default=2, help="training steps")
    trace_p.add_argument(
        "--out", default=None, help="directory for trace.json + audit/metrics exports"
    )
    trace_p.add_argument(
        "--per-rank", action="store_true", help="break the span summary out per rank"
    )
    trace_p.add_argument(
        "--assert-exact",
        action="store_true",
        help="exit non-zero unless the audit shows zero relative error",
    )
    trace_p.add_argument(
        "--traffic",
        action="store_true",
        help="print the rank-by-rank point-to-point traffic heatmap",
    )
    trace_p.add_argument(
        "--record",
        default=None,
        help="write the run's versioned RunRecord JSON to this path",
    )
    trace_p.add_argument(
        "--sdc",
        default=None,
        choices=["detect", "correct", "recompute"],
        help=(
            "run with ABFT guards on and audit their digest escorts as "
            "explicit abft.* cost-model terms"
        ),
    )

    watch_p = sub.add_parser(
        "watch",
        help=(
            "run a training scenario under the live health monitor: "
            "heartbeats and rule firings (stall, straggler, loss NaN/"
            "divergence, comm-wait spike, ckpt degradation) stream to the "
            "terminal as the run executes; exit 0 healthy / 1 warnings / "
            "2 critical"
        ),
    )
    watch_p.set_defaults(run=_run_watch)
    watch_p.add_argument(
        "--scenario",
        default="straggler",
        choices=["clean", "straggler", "crash", "degrade", "diverge"],
        help="what to run under the monitor (default: straggler)",
    )
    watch_p.add_argument(
        "--steps", type=int, default=8, help="training steps (default 8)"
    )
    watch_p.add_argument(
        "--seed", type=int, default=0, help="data/init seed (default 0)"
    )
    watch_p.add_argument(
        "--quiet", action="store_true",
        help="suppress per-heartbeat lines; show only health alerts",
    )
    watch_p.add_argument(
        "--stall-steps", type=int, default=None,
        help="heartbeat lag that counts as a stall (default 2)",
    )
    watch_p.add_argument(
        "--straggler-factor", type=float, default=None,
        help="per-step duration ratio over the median that flags a "
             "straggler (default 1.25)",
    )
    watch_p.add_argument(
        "--record",
        default=None,
        help="write the run's RunRecord JSON (schema v5, health block) here",
    )
    watch_p.add_argument(
        "--registry",
        default=None,
        help="append the run's metrics to this JSONL run registry",
    )
    watch_p.add_argument(
        "--json", action="store_true",
        help="emit one machine-readable JSON object instead of live lines",
    )

    history_p = sub.add_parser(
        "history",
        help=(
            "regression observatory over the run registry: per-series "
            "metric trends against rolling median + MAD bands; exit 0 ok / "
            "1 warnings / 2 drift"
        ),
    )
    history_p.set_defaults(run=_run_history)
    history_p.add_argument(
        "--registry",
        default="benchmarks/REGISTRY.jsonl",
        help="JSONL run registry (default: benchmarks/REGISTRY.jsonl)",
    )
    history_p.add_argument(
        "--min-history", type=int, default=None,
        help="baseline entries required before a series gates (default 4)",
    )
    history_p.add_argument(
        "--series", default=None,
        help="only judge series whose key contains this substring",
    )
    history_p.add_argument(
        "--json", action="store_true",
        help="emit the trend verdicts as one JSON object",
    )

    ingest_p = sub.add_parser(
        "ingest",
        help=(
            "append RunRecord / BENCH result JSON files to the run registry "
            "(auto-detected by schema tag)"
        ),
    )
    ingest_p.set_defaults(run=_run_ingest)
    ingest_p.add_argument(
        "paths", nargs="+", help="RunRecord or BENCH JSON files to ingest"
    )
    ingest_p.add_argument(
        "--registry",
        default="benchmarks/REGISTRY.jsonl",
        help="JSONL run registry (default: benchmarks/REGISTRY.jsonl)",
    )

    dash_p = sub.add_parser(
        "dash",
        help=(
            "render the run registry as a static HTML dashboard: "
            "sparklines, per-cost-term trend heatmap, health-event "
            "timelines; no external assets"
        ),
    )
    dash_p.set_defaults(run=_run_dash)
    dash_p.add_argument(
        "--registry",
        default="benchmarks/REGISTRY.jsonl",
        help="JSONL run registry (default: benchmarks/REGISTRY.jsonl)",
    )
    dash_p.add_argument(
        "--out", default="dash.html", help="output HTML path (default dash.html)"
    )
    dash_p.add_argument(
        "--records", nargs="*", default=(),
        help="RunRecord JSON files whose health events get timelines",
    )

    profile_p = sub.add_parser(
        "profile",
        help=(
            "host-time self-profiler: run a trainer under the sampling "
            "profiler, print the per-subsystem attribution table with "
            "µs/msg and µs/switch, export collapsed stacks / flamegraph / "
            "pprof-style JSON"
        ),
    )
    profile_p.set_defaults(run=_run_profile)
    profile_p.add_argument(
        "--trainer",
        default="mlp",
        choices=["mlp", "elastic", "summa", "integrated"],
        help="which simulated workload to profile (default: mlp)",
    )
    profile_p.add_argument(
        "-P", "--processes", type=int, default=None,
        help=(
            "total rank count; the grid is derived (Pr = largest divisor "
            "<= sqrt(P)).  Mutually exclusive with --pr/--pc."
        ),
    )
    profile_p.add_argument("--pr", type=int, default=None, help="model-parallel rows")
    profile_p.add_argument("--pc", type=int, default=None, help="batch-parallel columns")
    profile_p.add_argument("--steps", type=int, default=4, help="training steps (default 4)")
    profile_p.add_argument(
        "--hz", type=float, default=None,
        help="sampling rate of the profiler thread (default 197)",
    )
    profile_p.add_argument(
        "--out", default=None,
        help=(
            "directory for profile artifacts: collapsed.txt (flamegraph "
            "collapsed-stack format), flamegraph.html, pprof.json, "
            "profile.json (full report)"
        ),
    )
    profile_p.add_argument(
        "--record", default=None,
        help="write the run's RunRecord JSON (with host block) to this path",
    )
    profile_p.add_argument(
        "--json", action="store_true",
        help="emit one machine-readable JSON object instead of tables",
    )

    diff_p = sub.add_parser(
        "diff",
        help=(
            "compare two RunRecord JSON files span by span and exit "
            "non-zero on timing/traffic regressions"
        ),
    )
    diff_p.set_defaults(run=_run_diff)
    diff_p.add_argument("baseline", help="baseline RunRecord JSON path")
    diff_p.add_argument("current", help="current RunRecord JSON path")
    diff_p.add_argument(
        "--time-tol",
        type=float,
        default=None,
        help="allowed relative growth of any virtual time (default: 0.02)",
    )
    diff_p.add_argument(
        "--bytes-tol",
        type=float,
        default=None,
        help="allowed relative growth of span bytes (default: 0 — exact)",
    )
    diff_p.add_argument(
        "--msgs-tol",
        type=float,
        default=None,
        help="allowed relative growth of span message counts (default: 0)",
    )
    return parser


def _build_network(name: str):
    from repro.nn import alexnet, mlp, resnet_like_stack, vgg16

    if name == "alexnet":
        return alexnet()
    if name == "vgg16":
        return vgg16()
    if name == "resnet_like":
        return resnet_like_stack(input_size=56, blocks=8)
    return mlp([4096, 4096, 4096, 1000], name="MLP 4096x3")


def _run_best(args) -> int:
    from repro.core.costs import integrated_cost
    from repro.core.memory import memory_footprint
    from repro.core.optimizer import best_strategy
    from repro.report.tables import format_seconds
    from repro.search import default_engine

    setting = default_setting()
    network = _build_network(args.network)
    machine = setting.machine
    max_memory = (
        args.max_memory_mb * 2**20 / machine.element_bytes
        if args.max_memory_mb is not None
        else None
    )
    engine = None if args.serial else default_engine()
    search = best_strategy if engine is None else engine.best_strategy
    choice = search(
        network,
        args.batch,
        args.processes,
        machine,
        setting.compute,
        max_pc=args.max_pc,
        max_memory_elements=max_memory,
        overlap=args.overlap,
    )
    strategy = choice.strategy
    print(f"network : {network.name} ({network.total_params:,} parameters)")
    print(f"setting : B={args.batch}, P={args.processes}, machine={machine.name}")
    print(f"best    : {strategy.describe()}")
    print(f"  epoch time    : {format_seconds(choice.total_epoch)}")
    print(f"  communication : {format_seconds(choice.comm_epoch)}")
    fp = memory_footprint(network, args.batch, strategy)
    print(
        f"  memory/process: {fp.bytes(machine.element_bytes) / 2**20:.1f} MB "
        f"(weights {fp.weights / 1e6:.1f}M + grads + activations "
        f"{fp.activations / 1e6:.1f}M elements)"
    )
    breakdown = integrated_cost(network, args.batch, strategy, machine)
    print("  per-iteration comm breakdown:")
    for category, seconds in sorted(breakdown.by_category().items()):
        print(f"    {category:<22} {format_seconds(seconds)}")
    print("  per-layer placements:")
    for w, pl in zip(network.weighted_layers, strategy.placements):
        print(f"    {w.name:<10} {pl.value}")
    if args.plan:
        from repro.core.plan import build_iteration_plan

        plan = build_iteration_plan(network, args.batch, strategy, machine)
        print()
        print(plan.to_table().to_ascii())
        print(
            "  blocking (critical-path) communication: "
            f"{format_seconds(plan.blocking_time)} of {format_seconds(plan.total_time)}"
        )
    if args.cache_stats:
        if engine is None:
            print("cache   : n/a (serial optimizer, no cache)")
        else:
            stats = engine.cache_stats()
            print(
                f"cache   : {stats.hits} hits / {stats.misses} misses "
                f"({stats.hit_rate:.1%} hit rate, {stats.entries} entries)"
            )
    return 0


def _run_bench(args) -> int:
    import json

    from repro.errors import ConfigurationError
    from repro.gate import read_baseline, write_record
    from repro.search.bench import (
        DEFAULT_BATCH,
        DEFAULT_PROCESSES,
        DEFAULT_TOLERANCE,
        BenchRecord,
        compare_to_baseline,
        run_search_bench,
    )

    if args.points is not None:
        try:
            processes = tuple(
                int(part) for part in args.points.split(",") if part.strip()
            )
        except ValueError:
            print(f"bad --points {args.points!r}: expected comma-separated "
                  "integers", file=sys.stderr)
            return 2
    else:
        processes = DEFAULT_PROCESSES
    batch = args.batch if args.batch is not None else DEFAULT_BATCH
    tolerance = args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE

    try:
        record = run_search_bench(
            processes=processes, batch=batch, repeat=args.repeat, jobs=args.jobs
        )
    except ConfigurationError as exc:
        print(f"bench configuration error: {exc}", file=sys.stderr)
        return 2

    def emit(code, status, **gate_extra):
        """One machine-readable object wrapping the record + gate verdict."""
        if args.json:
            gate = {"status": status}
            gate.update(gate_extra)
            print(json.dumps(
                {
                    "schema": "repro.cli.bench/v1",
                    "record": record.to_payload(),
                    "gate": gate,
                    "exit_code": code,
                },
                indent=2,
                sort_keys=True,
            ))
        return code

    if not args.json:
        print(f"config  : {record.network}, B={record.batch:g}, "
              f"P={list(record.processes)} (best of {record.repeat})")
        print(f"serial  : {record.serial_s * 1e3:8.1f} ms")
        print(f"engine  : {record.engine_s * 1e3:8.1f} ms")
        print(f"speedup : {record.speedup:.2f}x "
              f"({'bit-identical' if record.identical else 'RESULTS DIFFER'})")
        print(f"cache   : {record.cache_hits} hits / {record.cache_misses} "
              f"misses, {record.cache_entries} entries")

    if args.out:
        write_record(args.out, record.to_payload())
        if not args.json:
            print(f"record  : wrote {args.out}")
    if args.update_baseline:
        write_record(args.baseline, record.to_payload())
        if not args.json:
            print(f"baseline: updated {args.baseline}")
        return emit(0, "baseline-updated")
    if args.no_compare:
        return emit(0, "skipped")

    try:
        baseline = BenchRecord.from_payload(read_baseline(args.baseline))
        failures = compare_to_baseline(record, baseline, tolerance=tolerance)
    except ConfigurationError as exc:
        print(f"bench gate error: {exc}", file=sys.stderr)
        return 2
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return emit(1, "fail", failures=[str(f) for f in failures],
                    baseline_speedup=baseline.speedup, tolerance=tolerance)
    if not args.json:
        print(f"gate    : PASS (baseline {baseline.speedup:.2f}x, "
              f"tolerance {tolerance:.0%})")
    return emit(0, "pass", baseline_speedup=baseline.speedup,
                tolerance=tolerance)


def _run_faults(args) -> int:
    import json

    from repro.errors import ConfigurationError
    from repro.report.timeline import (
        render_fault_log,
        render_span_timeline,
        render_timeline,
    )
    from repro.scenarios import faults_demo
    from repro.simmpi.faults import FaultPlan

    if args.ranks < 2:
        print("faults demo needs at least 2 ranks", file=sys.stderr)
        return 2
    plan = None
    if args.plan is not None:
        try:
            with open(args.plan, "r", encoding="utf-8") as fh:
                plan = FaultPlan.from_json(fh.read())
        except (OSError, ValueError, ConfigurationError) as exc:
            print(f"bad fault plan {args.plan!r}: {exc}", file=sys.stderr)
            return 2
    demo = faults_demo(args.ranks, args.steps, args.seed, plan=plan, sdc=args.sdc)
    (trial,), result = demo.rows, demo.run
    plan, (pr, pc) = trial["plan"], trial["grid"]
    if not args.json:
        print(f"world   : {args.ranks} ranks as a {pr}x{pc} grid, "
              f"{args.steps} steps")
        print(
            f"plan    : {len(plan.crashes)} crash(es), {len(plan.transients)} "
            f"transient(s), {len(plan.drops)} drop(s), {len(plan.links)} link "
            f"fault(s), {len(plan.stragglers)} straggler(s), "
            f"{len(plan.bitflips)} bit flip(s)  [seed {plan.seed}]"
        )
        if args.sdc:
            print(f"guards  : ABFT on, policy {args.sdc!r}")
    if result is None:
        print(f"DEGRADED: {demo.verdict.text}", file=sys.stderr)
        return demo.verdict.code
    if args.record:
        from repro.analysis import write_run_record

        write_run_record(demo.record(), args.record)
    if args.json:
        print(json.dumps(demo.payload, indent=2, sort_keys=True))
        return demo.verdict.code
    events = result.engine.tracer.canonical()
    print()
    print("fault log:")
    print(render_fault_log(events))
    print()
    print(render_timeline(events, width=args.width))
    print()
    print(render_span_timeline(events, width=args.width))
    print()
    if result.recovered:
        degraded_at = set(result.degraded_steps)
        for (gpr, gpc), at in zip(result.grids[1:], result.restore_steps):
            print(
                f"recovery: shrank to a {gpr}x{gpc} grid, resumed from "
                f"the step-{at} checkpoint"
                + (" (DEGRADED: newer shards unrecoverable)"
                   if at in degraded_at else "")
            )
    else:
        print("recovery: none needed")
    if plan.stragglers:
        slack = demo.payload["straggler_slack_s"]
        print()
        print("stragglers:")
        for spec in plan.stragglers:
            jitter = f", jitter {spec.jitter:g}" if spec.jitter else ""
            print(
                f"  rank {spec.rank}: factor {spec.factor:g}{jitter} -> "
                f"injected slack {slack.get(str(spec.rank), 0.0):.3e}s virtual"
            )
    if args.record:
        print(f"record  : wrote {args.record}")
    print(f"failed ranks   : {list(result.sim.failed) or 'none'}")
    print(f"final loss     : {result.losses[-1]:.6f}")
    print(f"max |w - serial|: {demo.payload['max_weight_dev']:.3e}")
    if demo.verdict.code:
        print(f"DEGRADED: {demo.verdict.text}", file=sys.stderr)
    return demo.verdict.code


def _run_sdc(args) -> int:
    from repro.scenarios import SDC_DIMS, SDC_GRID, sdc_gauntlet

    gauntlet = sdc_gauntlet(args.policy, args.no_guard, args.steps, args.seed)
    pr, pc = SDC_GRID
    print(
        f"gauntlet: {len(gauntlet.rows)} single-bit-flip plans on a "
        f"{pr}x{pc} grid, dims {SDC_DIMS}, {args.steps} steps, "
        + ("guards OFF" if args.no_guard else f"guards ON (policy {args.policy!r})")
    )
    width = max(len(name) for name, _ in gauntlet.rows)
    for name, outcome in gauntlet.rows:
        print(f"  {name:<{width}}  {outcome}")
    if args.record and gauntlet.record is not None:
        from repro.analysis import write_run_record

        write_run_record(gauntlet.record(), args.record)
        print(f"record  : wrote {args.record}")
    verdict = gauntlet.verdict
    print(f"VERDICT : {verdict.text}", file=sys.stderr if verdict.code else sys.stdout)
    return verdict.code


def _run_chaos(args) -> int:
    import json
    import os

    from repro.errors import ConfigurationError, ReproError
    from repro.scenarios import CHAOS_GRID, DIMS, chaos_soak, chaos_trials

    flags = (args.trials, args.steps, args.parity, args.seed, args.over_parity)
    try:
        names = [trial.name for trial in chaos_trials(*flags)]
    except ConfigurationError as exc:
        print(exc, file=sys.stderr)
        return 2
    width = max(len(name) for name in names)
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
    if not args.json:
        pr, pc = CHAOS_GRID
        print(
            f"chaos soak: {len(names)} trials on a {pr}x{pc} grid, dims "
            f"{DIMS}, {args.steps} steps, checkpoint every 2, parity {args.parity} "
            f"(each trial: erasure-coded shards vs full replication)"
        )

    def on_trial(trial, row, record):
        if not args.json:
            print(f"  {trial.name:<{width}}  {row['outcome']}"
                  + (f"  [{row['detail']}]" if row["detail"] else ""))
        if args.out is not None:
            stem = os.path.join(args.out, f"trial_{trial.name}")
            with open(f"{stem}.plan.json", "w", encoding="utf-8") as fh:
                fh.write(trial.plan.to_json())
            if record is not None:
                from repro.analysis import write_run_record

                write_run_record(record(), f"{stem}.record.json")

    try:
        soak = chaos_soak(*flags, trace=args.out is not None, on_trial=on_trial)
    except ReproError as exc:
        print(f"chaos: clean oracle run failed: {exc}", file=sys.stderr)
        return 2
    verdict = soak.verdict
    if not args.json:
        print(f"VERDICT : {verdict.text}",
              file=sys.stderr if verdict.code == 2 else sys.stdout)
    if args.out is not None:
        summary_path = os.path.join(args.out, "chaos_summary.json")
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(soak.payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        if not args.json:
            print(f"wrote   : {summary_path}")
    if args.json:
        print(json.dumps(soak.payload, indent=2, sort_keys=True))
    return verdict.code


def _run_watch(args) -> int:
    import json

    from repro.errors import ReproError
    from repro.observe.health import HealthConfig, HealthMonitor
    from repro.observe.watch import WatchRenderer
    from repro.scenarios import watch_run

    cfg_kwargs = {}
    if args.stall_steps is not None:
        cfg_kwargs["stall_steps"] = args.stall_steps
    if args.straggler_factor is not None:
        cfg_kwargs["straggler_factor"] = args.straggler_factor
    try:
        health_config = HealthConfig(**cfg_kwargs)
        health_config.validate()
    except ReproError as exc:
        print(f"bad monitor config: {exc}", file=sys.stderr)
        return 2

    monitor = HealthMonitor(health_config)
    if args.json:
        sink = monitor  # machine-readable mode: no live lines
    else:
        sink = WatchRenderer(monitor, heartbeats=not args.quiet)
        print(f"watch   : scenario {args.scenario!r}, {args.steps} steps, "
              f"seed {args.seed}")
    try:
        run = watch_run(
            args.scenario, steps=args.steps, seed=args.seed,
            health_config=health_config, sink=sink,
        )
    except ReproError as exc:
        print(f"watch: run failed: {exc}", file=sys.stderr)
        return 2
    monitor.finish()

    record = run.record() if args.record or args.registry else None
    if args.record:
        from repro.analysis import write_run_record

        write_run_record(record, args.record)
    if args.registry:
        from repro.observe.registry import append_entries, entry_from_record

        entry = entry_from_record(
            record.to_dict(), source=f"repro watch --scenario {args.scenario}"
        )
        append_entries(args.registry, [entry])

    if args.json:
        print(json.dumps(run.payload, indent=2, sort_keys=True))
        return run.verdict.code
    print()
    if run.rows:
        print(run.run.to_table().to_ascii())
    else:
        print("health  : no events — run looks healthy")
    if args.record:
        print(f"record  : wrote {args.record}")
    if args.registry:
        print(f"registry: appended 1 entry to {args.registry}")
    print(f"verdict : {run.verdict.text} "
          f"(makespan {run.payload['makespan_s']:.6f}s virtual)")
    return run.verdict.code


def _run_history(args) -> int:
    import json

    from repro.errors import ReproError
    from repro.observe.registry import (
        DriftThresholds,
        compute_trends,
        load_registry,
        trend_table,
        worst_status,
    )

    try:
        entries = load_registry(args.registry)
    except ReproError as exc:
        print(f"bad registry {args.registry!r}: {exc}", file=sys.stderr)
        return 2
    if not entries:
        print(f"registry {args.registry!r} is missing or empty",
              file=sys.stderr)
        return 2
    thresholds = DriftThresholds()
    if args.min_history is not None:
        thresholds = DriftThresholds(min_history=args.min_history)
    try:
        trends = compute_trends(entries, thresholds)
    except ReproError as exc:
        print(f"history error: {exc}", file=sys.stderr)
        return 2
    if args.series:
        trends = [t for t in trends if args.series in t.series]
        if not trends:
            print(f"no series matching {args.series!r} in {args.registry}",
                  file=sys.stderr)
            return 2
    status = worst_status(trends)
    code = {"drift": 2, "warn": 1}.get(status, 0)
    if args.json:
        payload = {
            "schema": "repro.cli.history/v1",
            "registry": args.registry,
            "entries": len(entries),
            "trends": [
                {
                    "series": t.series,
                    "metric": t.metric,
                    "n": len(t.values),
                    "median": t.median,
                    "mad": t.mad,
                    "latest": t.latest,
                    "deviation": t.deviation,
                    "status": t.status,
                }
                for t in trends
            ],
            "worst": status,
            "exit_code": code,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return code
    print(f"registry: {args.registry} ({len(entries)} entries, "
          f"{len({t.series for t in trends})} judged series)")
    print()
    print(trend_table(trends).to_ascii())
    print()
    gates = [t for t in trends if t.gates]
    for t in gates:
        print(
            f"{'DRIFT' if t.status == 'drift' else 'WARN '}   : "
            f"{t.series} :: {t.metric} latest {t.latest:.6g} vs median "
            f"{t.median:.6g} (deviation {t.deviation:.3g})",
            file=sys.stderr,
        )
    print(f"verdict : {status}")
    return code


def _run_ingest(args) -> int:
    import json

    from repro.errors import ReproError
    from repro.observe.registry import append_entries, entry_from_payload

    entries = []
    for path in args.paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read {path!r}: {exc}", file=sys.stderr)
            return 2
        # CLI --json wrappers carry the ingestible record one level down.
        if isinstance(payload, dict) and "record" in payload and str(
            payload.get("schema", "")
        ).startswith("repro.cli."):
            payload = payload["record"]
        try:
            entry = entry_from_payload(payload, source=path)
        except ReproError as exc:
            print(f"cannot ingest {path!r}: {exc}", file=sys.stderr)
            return 2
        entries.append(entry)
        print(f"ingest  : {path} -> series {entry.series!r} "
              f"({len(entry.metrics)} metrics)")
    count = append_entries(args.registry, entries)
    print(f"registry: appended {count} entr{'y' if count == 1 else 'ies'} "
          f"to {args.registry}")
    return 0


def _run_dash(args) -> int:
    import json

    from repro.errors import ReproError
    from repro.observe.registry import compute_trends, load_registry
    from repro.report.dash import write_dashboard

    try:
        entries = load_registry(args.registry)
        trends = compute_trends(entries) if entries else []
    except ReproError as exc:
        print(f"bad registry {args.registry!r}: {exc}", file=sys.stderr)
        return 2
    health_runs = []
    for path in args.records:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read record {path!r}: {exc}", file=sys.stderr)
            return 2
        makespan = payload.get("makespan_s", 0.0)
        events = payload.get("health", {}).get("events", [])
        health_runs.append((path, makespan, events))
    write_dashboard(
        args.out, trends, health_runs=health_runs,
        title="repro regression observatory",
    )
    print(f"dash    : wrote {args.out} ({len(trends)} trends, "
          f"{len(health_runs)} health timeline(s))")
    return 0


#: Network presets for ``repro trace`` — small enough to simulate quickly,
#: big enough that every layer exercises both grid dimensions.  "fig7" is a
#: scaled-down proxy for the AlexNet FC stack the paper's Fig. 7 studies.
TRACE_PRESETS = {
    "mlp": (32, 24, 16, 10),
    "fig7": (48, 32, 32, 10),
}


def _run_trace(args) -> int:
    from repro.analysis import (
        critical_path,
        rank_accounting,
        register_analysis_metrics,
    )
    from repro.dist.train import distributed_mlp_train, mlp_problem, mlp_run_record
    from repro.errors import ReproError
    from repro.report.export import export_metrics
    from repro.report.timeline import render_traffic_matrix, traffic_matrix
    from repro.simmpi.engine import SimEngine
    from repro.telemetry.audit import audit_events
    from repro.telemetry.chrome import validate_chrome_trace, write_chrome_trace
    from repro.telemetry.metrics import MetricsRegistry
    from repro.telemetry.summary import span_summary

    dims = TRACE_PRESETS[args.experiment]
    print(
        f"tracing : {args.experiment} dims={dims} on a {args.pr}x{args.pc} grid, "
        f"batch {args.batch}, {args.steps} step(s)"
        + (f", SDC guards on ({args.sdc})" if args.sdc else "")
    )
    try:
        engine = SimEngine(args.pr * args.pc, trace=True)
        _, _, sim = distributed_mlp_train(
            *mlp_problem(dims, args.batch),
            pr=args.pr, pc=args.pc, batch=args.batch, steps=args.steps,
            engine=engine, sdc=args.sdc,
        )
        events = engine.tracer.canonical()
        dropped = engine.tracer.dropped
        report = audit_events(
            events, dims, pr=args.pr, pc=args.pc, batch=args.batch,
            steps=args.steps, dropped=dropped, sdc=args.sdc is not None,
        )
        accounting = rank_accounting(events, clocks=sim.clocks, dropped=dropped)
        cp = critical_path(events, clocks=sim.clocks, dropped=dropped)
    except ReproError as exc:
        print(f"trace failed: {exc}", file=sys.stderr)
        return 2
    registry = MetricsRegistry()
    for event in events:
        registry.observe_event(event)
    register_analysis_metrics(registry, cp, accounting)
    print()
    print(span_summary(events, per_rank=args.per_rank, dropped=dropped).to_ascii())
    print()
    print(report.to_table().to_ascii())
    print()
    print(accounting.to_table().to_ascii())
    print()
    print(cp.to_table(limit=12).to_ascii())
    digest = cp.summary()
    print(
        f"critical: {digest['length_s']:.3e}s of {digest['makespan_s']:.3e}s "
        f"makespan on the path ({digest['events']} events, DAG "
        f"{digest['dag_nodes']} nodes / {digest['dag_edges']} edges); "
        f"idle fraction {accounting.idle_fraction:.1%}, straggler rank "
        f"{accounting.straggler_rank}"
    )
    if args.traffic:
        print()
        print(render_traffic_matrix(traffic_matrix(events)))
    print()
    print(
        f"audit   : max bandwidth rel. error "
        f"{report.max_bandwidth_rel_error:.3e}, max latency rel. error "
        f"{report.max_latency_rel_error:.3e}"
        f" -> {'EXACT' if report.exact else 'MISMATCH'}"
    )
    if args.record:
        from repro.analysis import write_run_record

        record = mlp_run_record(
            engine, sim, dims=dims, pr=args.pr, pc=args.pc,
            batch=args.batch, steps=args.steps, sdc=args.sdc,
            meta={"experiment": args.experiment},
        )
        write_run_record(record, args.record)
        print(f"record  : wrote {args.record}")
    if args.out:
        trace_path = f"{args.out.rstrip('/')}/trace.json"
        obj = write_chrome_trace(
            events, trace_path, title=f"repro trace {args.experiment}"
        )
        n_ev = validate_chrome_trace(obj)
        print(f"chrome  : wrote {n_ev} events to {trace_path} (load in Perfetto)")
        export_results(report.to_table(), args.out, "audit")
        export_results(accounting.to_table(), args.out, "accounting")
        export_results(cp.to_table(), args.out, "critical_path")
        export_metrics(registry, args.out)
        export_results(span_summary(events, per_rank=True), args.out, "spans")
    if args.assert_exact and not report.exact:
        print("audit mismatch: measured traffic deviates from the cost model",
              file=sys.stderr)
        return 1
    return 0


def _profile_grid(args):
    """``(pr, pc)`` from ``--pr/--pc`` or derived from ``-P``."""
    import math

    from repro.errors import ConfigurationError

    if args.pr is not None or args.pc is not None:
        if args.processes is not None:
            raise ConfigurationError("pass either -P or --pr/--pc, not both")
        return (args.pr if args.pr is not None else 2,
                args.pc if args.pc is not None else 2)
    p = args.processes if args.processes is not None else 16
    if p < 1:
        raise ConfigurationError(f"-P must be >= 1, got {p}")
    pr = 1
    for d in range(1, math.isqrt(p) + 1):
        if p % d == 0:
            pr = d
    return pr, p // pr


def _run_profile(args) -> int:
    import json
    import math
    import os

    import numpy as np

    from repro.errors import ConfigurationError, ReproError
    from repro.profile import OVERHEAD_BUDGET, ProfileSession, host_block
    from repro.profile.export import (
        write_collapsed,
        write_flamegraph_html,
        write_pprof_json,
    )
    from repro.simmpi.engine import SimEngine

    try:
        pr, pc = _profile_grid(args)
        session = (
            ProfileSession(hz=args.hz) if args.hz is not None else ProfileSession()
        )
    except ConfigurationError as exc:
        print(f"profile config error: {exc}", file=sys.stderr)
        return 2

    trace = args.record is not None
    seed = 0
    steps = args.steps
    record = None
    if not args.json:
        print(
            f"profile : {args.trainer} on a {pr}x{pc} grid, "
            f"{steps} step(s), "
            f"sampling at {session.hz:g}Hz"
        )
    try:
        engine = SimEngine(pr * pc, trace=trace, supervise=args.trainer == "elastic")
        batch = 2 * pc
        if args.trainer in ("mlp", "elastic"):
            from repro.dist.train import mlp_problem

            dims = (max(64, pr), max(64, pr), max(32, pr))
            problem = mlp_problem(dims, batch, seed, samples=2 * batch)
        if args.trainer == "mlp":
            from repro.dist.train import distributed_mlp_train, mlp_run_record

            with session:
                _, _, sim = distributed_mlp_train(
                    *problem,
                    pr=pr, pc=pc, batch=batch, steps=steps, engine=engine,
                )
            if trace:
                record = mlp_run_record(
                    engine, sim, dims=dims, pr=pr, pc=pc, batch=batch,
                    steps=steps, meta={"profiled": True},
                    host=host_block(engine),
                )
        elif args.trainer == "elastic":
            from repro.dist.elastic import elastic_mlp_train, elastic_run_record

            with session:
                result = elastic_mlp_train(
                    *problem,
                    pr=pr, pc=pc, batch=batch, steps=steps, engine=engine,
                )
            if trace:
                record = elastic_run_record(
                    result, batch=batch, steps=steps, meta={"profiled": True},
                    host=host_block(engine),
                )
        elif args.trainer == "summa":
            from repro.dist.summa2d import summa_run_record, summa_train

            k = math.lcm(pr, pc) * 8
            m = max(64, 4 * pr)
            n_cols = max(64, 4 * pc)
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((m, k))
            b = rng.standard_normal((k, n_cols))
            with session:
                _, sim, _ = summa_train(a, b, pr=pr, pc=pc, engine=engine)
            if trace:
                record = summa_run_record(
                    engine, sim, m=m, k=k, n=n_cols, pr=pr, pc=pc,
                    meta={"profiled": True}, host=host_block(engine),
                )
        else:  # integrated
            from repro.data.synthetic import synthetic_images
            from repro.dist.integrated import (
                CNNParams, IntegratedCNNConfig, cnn_run_record,
                distributed_cnn_train,
            )

            h = max(8, 4 * pr)
            config = IntegratedCNNConfig(
                in_channels=2, height=h, width=h, conv_channels=(4,),
                conv_kernels=(3,), pool_after=(True,), fc_dims=(32, 5),
            )
            x, y = synthetic_images(2 * batch, 2, h, h, 5, seed=seed)
            with session:
                _, _, sim = distributed_cnn_train(
                    config, CNNParams.init(config, seed=seed), x, y,
                    pr=pr, pc=pc, batch=batch, steps=steps, engine=engine,
                )
            if trace:
                record = cnn_run_record(
                    engine, sim, config=config, pr=pr, pc=pc, batch=batch,
                    steps=steps, meta={"profiled": True},
                    host=host_block(engine),
                )
    except ReproError as exc:
        print(f"profile failed: {exc}", file=sys.stderr)
        return 2

    report = session.report()
    # Attribution sanity gate (the acceptance bar): per-subsystem host
    # times must sum to within 10% of the measured wall-clock.
    wall = report.wall_s
    attribution_ok = (
        report.ticks == 0
        or abs(report.attribution_total_s - wall) <= 0.10 * wall
    )
    exit_code = 0 if attribution_ok else 1

    artifacts = {}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        out = args.out.rstrip("/")
        collapsed = session.collapsed
        subtitle = (
            f"{args.trainer} {pr}x{pc}, {report.wall_s:.3f}s "
            f"wall, {report.ticks} ticks @ {report.hz:g}Hz"
        )
        artifacts["collapsed"] = f"{out}/collapsed.txt"
        write_collapsed(collapsed, artifacts["collapsed"])
        artifacts["flamegraph"] = f"{out}/flamegraph.html"
        write_flamegraph_html(
            collapsed, artifacts["flamegraph"],
            title=f"repro profile {args.trainer}", subtitle=subtitle,
        )
        artifacts["pprof"] = f"{out}/pprof.json"
        write_pprof_json(
            collapsed, artifacts["pprof"], period_ns=1e9 / report.hz,
        )
        artifacts["report"] = f"{out}/profile.json"
        with open(artifacts["report"], "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.record and record is not None:
        from repro.analysis import write_run_record

        write_run_record(record, args.record)

    if args.json:
        payload = {
            "schema": "repro.cli.profile/v1",
            "trainer": args.trainer,
            "grid": {"pr": pr, "pc": pc},
            "engine": "event",
            "steps": steps,
            "report": report.to_dict(),
            "attribution_ok": attribution_ok,
            "artifacts": artifacts,
            "record": args.record,
            "exit_code": exit_code,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return exit_code

    print()
    print(report.to_table().to_ascii())
    print()
    c = report.counters
    print(
        f"counters: {c['msgs_sent']} msgs ({c['bytes_sent']} bytes), "
        f"{c['msgs_delivered']} delivered, {c['postal_calls']} postal, "
        f"{c['switches']} switches, {c['dispatches']} dispatches, "
        f"{c['trace_records']} trace records"
    )
    if report.us_per_msg is not None:
        print(
            f"derived : {report.us_per_msg:.2f} µs/msg sampled on the "
            f"message path, {report.us_per_msg_allin:.2f} µs/msg all-in "
            "(wall / msgs)"
        )
    if report.us_per_switch is not None:
        print(
            f"          {report.us_per_switch:.2f} µs/switch "
            "(scheduler + handoff over switch count)"
        )
    print(
        f"overhead: sampler busy {report.sampler_busy_s * 1e3:.1f}ms of "
        f"{wall:.3f}s wall ({report.overhead_frac:.2%}; budget "
        f"{100 * OVERHEAD_BUDGET:.0f}%), {report.samples} samples kept, "
        f"{report.samples_dropped} dropped"
    )
    for name, path in artifacts.items():
        print(f"export  : {name} -> {path}")
    if args.record and record is not None:
        print(f"record  : wrote {args.record}")
    if not attribution_ok:
        print(
            f"ATTRIBUTION MISMATCH: rows sum to {report.attribution_total_s:.3f}s "
            f"vs {wall:.3f}s wall (>10% apart)",
            file=sys.stderr,
        )
    return exit_code


def _run_diff(args) -> int:
    from repro.analysis import DiffThresholds, diff_records, read_run_record
    from repro.errors import ConfigurationError

    try:
        baseline = read_run_record(args.baseline)
    except (OSError, ValueError, ConfigurationError) as exc:
        print(f"cannot read baseline {args.baseline!r}: {exc}", file=sys.stderr)
        return 2
    try:
        current = read_run_record(args.current)
    except (OSError, ValueError, ConfigurationError) as exc:
        print(f"cannot read current {args.current!r}: {exc}", file=sys.stderr)
        return 2
    defaults = DiffThresholds()
    thresholds = DiffThresholds(
        time_rel=args.time_tol if args.time_tol is not None else defaults.time_rel,
        bytes_rel=(
            args.bytes_tol if args.bytes_tol is not None else defaults.bytes_rel
        ),
        msgs_rel=args.msgs_tol if args.msgs_tol is not None else defaults.msgs_rel,
    )
    try:
        report = diff_records(baseline, current, thresholds=thresholds)
    except ConfigurationError as exc:
        print(f"diff error: {exc}", file=sys.stderr)
        return 2
    print(
        f"baseline: {args.baseline} ({baseline.trainer}, "
        f"{baseline.grid['pr']}x{baseline.grid['pc']} grid, "
        f"machine {baseline.machine.get('name', '?')})"
    )
    print(
        f"current : {args.current} "
        f"(machine {current.machine.get('name', '?')})"
    )
    if current.dropped:
        print(
            f"WARNING : current record dropped {current.dropped} trace events; "
            "its totals are lower bounds",
            file=sys.stderr,
        )
    print()
    print(report.to_table().to_ascii())
    if report.regressed:
        for regression in report.regressions:
            print(f"REGRESSION: {regression}", file=sys.stderr)
        return 1
    print(
        f"gate    : PASS ({report.compared} quantities within "
        f"time {thresholds.time_rel:.0%} / bytes {thresholds.bytes_rel:.0%} / "
        f"msgs {thresholds.msgs_rel:.0%})"
    )
    return 0


def _run_list(args) -> int:
    width = max(len(k) for k in EXPERIMENTS)
    for entry in EXPERIMENTS.values():
        print(f"{entry.experiment_id:<{width}}  [{entry.paper_ref:<15}] {entry.title}")
    return 0


def _run_summary(args) -> int:
    setting = default_setting()
    print(setting.network.summary())
    print()
    m = setting.machine
    print(
        f"machine: {m.name} (alpha={m.alpha * 1e6:g}us, "
        f"1/beta={m.bandwidth / 1e9:g} GB/s)"
    )
    print(
        f"dataset: {setting.dataset.name} "
        f"({setting.dataset.train_images:,} images, "
        f"{setting.dataset.num_classes} classes)"
    )
    return 0


def _run_run(args) -> int:
    ids = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for experiment_id in ids:
        entry = get_experiment(experiment_id)
        result = entry.runner()
        if not args.quiet:
            print(result.render())
            print()
        if args.out:
            for i, table in enumerate(result.tables):
                stem = result.experiment_id if i == 0 else f"{result.experiment_id}_{i}"
                export_results(table, args.out, stem)
            write_text(
                f"{args.out.rstrip('/')}/{result.experiment_id}_report.txt",
                result.render(),
            )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
