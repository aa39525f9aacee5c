"""Tests for :mod:`repro.scenarios`: the faults/sdc/chaos/watch verdicts.

The CLI is checked byte for byte against ``tests/golden/cli_scenarios.json``;
the library calls behind it are checked against the same fixture without
going through :func:`repro.cli.main`; and the pure deciders
(:func:`chaos_outcome`, :func:`sdc_outcome`, the severity lookup) are
checked on small stand-ins, with no engine run.
"""

import inspect
import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from repro import cli
from repro.dist.elastic import Checkpoint
from repro.errors import ConfigurationError, ReproError
from repro.scenarios import (
    SEVERITY,
    Verdict,
    chaos_outcome,
    chaos_soak,
    chaos_trials,
    ckpt_equal,
    faults_demo,
    sdc_gauntlet,
    sdc_outcome,
    watch_run,
)
from tests.golden.generate_cli_scenarios import GOLDEN_PATH, run_cli

with open(GOLDEN_PATH, encoding="utf-8") as _fh:
    CASES = json.load(_fh)["cases"]
CASE_IDS = [" ".join(case["argv"]) for case in CASES]


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_cli_matches_golden(case):
    assert run_cli(case["argv"]) == {
        key: case[key] for key in ("exit_code", "stdout", "stderr")
    }


def _library_result(argv):
    args = cli.build_parser().parse_args(argv)
    if args.command == "faults":
        return faults_demo(args.ranks, args.steps, args.seed, sdc=args.sdc)
    if args.command == "sdc":
        return sdc_gauntlet(args.policy, args.no_guard, args.steps, args.seed)
    if args.command == "chaos":
        return chaos_soak(
            args.trials, args.steps, args.parity, args.seed, args.over_parity
        )
    return watch_run(args.scenario, steps=args.steps, seed=args.seed)


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_library_verdict_matches_golden_exit_code(case):
    result = _library_result(case["argv"])
    assert result.verdict.code == case["exit_code"]
    if "--json" in case["argv"]:
        printed = json.dumps(result.payload, indent=2, sort_keys=True) + "\n"
        assert printed == case["stdout"]


@pytest.mark.parametrize("command", ["faults", "sdc", "chaos", "watch"])
def test_cli_scenario_commands_only_parse_and_print(command):
    source = inspect.getsource(getattr(cli, f"_run_{command}"))
    called = set(re.findall(r"\b(\w+)\(", source))
    assert "SimEngine" not in called
    assert not {n for n in called if n.endswith("_train")}
    assert {n for n in called if n.endswith("_run_record")} <= {"write_run_record"}


# -- severity -------------------------------------------------------------


def test_severity_maps_outcomes_to_exit_codes():
    texts = ("ok", "declared", "silent")
    assert Verdict.judge([], texts) == Verdict(0, "ok")
    assert Verdict.judge(["exact", "exact-ahead", None], texts) == Verdict(0, "ok")
    assert Verdict.judge(["exact", "declared-failed"], texts) == Verdict(1, "declared")
    assert Verdict.judge(
        ["declared-degraded", "SILENT-DIVERGENCE"], texts
    ) == Verdict(2, "silent")


@pytest.mark.parametrize(
    "outcome, code",
    [
        ("corrected", 0), ("recomputed", 0), ("benign", 0),
        ("detected-unrecovered", 1), ("escaped", 2), ("no-fire", 2),
        ("exact", 0), ("exact-ahead", 0), ("declared-failed", 1),
        ("declared-degraded", 1), ("SILENT-DIVERGENCE", 2),
        (None, 0), ("warn", 1), ("crit", 2), ("degraded", 1),
    ],
)
def test_every_scenario_outcome_has_its_exit_code(outcome, code):
    assert SEVERITY.get(outcome, 0) == code
    assert Verdict.judge([outcome], ("0", "1", "2")).code == code


# -- sdc_outcome ----------------------------------------------------------


@pytest.mark.parametrize(
    "args, outcome",
    [
        ((0, True), "no-fire"),
        ((0, False), "no-fire"),
        ((1, False, 1, 0), "escaped"),
        ((1, True, 1, 0), "corrected"),
        ((2, True, 0, 1), "recomputed"),
        ((1, True, 1, 1), "corrected"),
        ((1, True), "benign"),
    ],
)
def test_sdc_outcome(args, outcome):
    assert sdc_outcome(*args) == outcome


# -- chaos_outcome --------------------------------------------------------


def _w(*values):
    return [np.array(values, dtype=float)]


def _run(weights=None, grids=((2, 4),), restores=(), degraded=(), failed=(), restored=()):
    return SimpleNamespace(
        weights=weights if weights is not None else _w(1.0, 2.0),
        grids=[tuple(g) for g in grids],
        restore_steps=list(restores),
        degraded_steps=list(degraded),
        recovered=bool(restores),
        sim=SimpleNamespace(failed=list(failed)),
        restored=list(restored),
    )


def _ckpt(step, weights=None, losses=(0.5, 0.4), velocity=None):
    return Checkpoint(step, weights if weights is not None else _w(3.0), velocity, losses)


def _oracle(*ckpts):
    holdings = {c.step: SimpleNamespace(checkpoint=c) for c in ckpts}
    return SimpleNamespace(store=SimpleNamespace(get=holdings.get))


def test_chaos_exact_clean():
    assert chaos_outcome(_run(), _run(), _oracle()) == ("exact", "")


def test_chaos_exact_after_recovery():
    recovered = dict(grids=[(2, 4), (1, 7)], restores=[4], failed=[1])
    outcome, detail = chaos_outcome(_run(**recovered), _run(**recovered), _oracle())
    assert outcome == "exact"
    assert detail == "recovered from [1] via step(s) [4]"


def test_chaos_exact_ahead():
    ckpt = _ckpt(4)
    erasure = _run(grids=[(2, 4), (1, 7)], restores=[4], restored=[ckpt.copy()])
    replicate = _run(
        weights=_w(1.0, 2.0 + 1e-12), grids=[(2, 4), (1, 7)], restores=[2],
        restored=[_ckpt(2)],
    )
    outcome, detail = chaos_outcome(erasure, replicate, _oracle(ckpt))
    assert outcome == "exact-ahead"
    assert "bit-identical to the clean oracle" in detail


def test_chaos_silent_from_diverged_weights():
    outcome, _ = chaos_outcome(_run(), _run(weights=_w(1.0, 2.5)), _oracle())
    assert outcome == "SILENT-DIVERGENCE"


def test_chaos_silent_from_oracle_mismatch():
    erasure = _run(grids=[(2, 4), (1, 7)], restores=[4], restored=[_ckpt(4, _w(3.0))])
    replicate = _run(grids=[(2, 4), (1, 7)], restores=[2], restored=[_ckpt(2)])
    outcome, detail = chaos_outcome(erasure, replicate, _oracle(_ckpt(4, _w(3.5))))
    assert outcome == "SILENT-DIVERGENCE"
    assert "ahead=True oracle-match=False converged=True" in detail


def test_chaos_silent_when_erasure_restores_older_step():
    ckpt = _ckpt(2)
    erasure = _run(grids=[(2, 4), (1, 7)], restores=[2], restored=[ckpt])
    replicate = _run(grids=[(2, 4), (1, 7)], restores=[4], restored=[_ckpt(4)])
    outcome, detail = chaos_outcome(erasure, replicate, _oracle(ckpt))
    assert outcome == "SILENT-DIVERGENCE"
    assert "ahead=False" in detail


def test_chaos_declared_failed():
    assert chaos_outcome(ReproError("all ranks died"), _run(), _oracle()) == (
        "declared-failed", "all ranks died",
    )


def test_chaos_declared_degraded():
    erasure = _run(grids=[(2, 4), (1, 6)], restores=[0], degraded=[0])
    assert chaos_outcome(erasure, _run(), _oracle()) == (
        "declared-degraded", "restored step(s) [0] (degraded at [0])",
    )


def test_chaos_reference_run_failure():
    assert chaos_outcome(_run(), ReproError("boom"), _oracle()) == (
        "declared-failed", "reference run: boom",
    )


def test_ckpt_equal():
    base = _ckpt(4, velocity=_w(0.1))
    assert ckpt_equal(base, base.copy())
    assert not ckpt_equal(base, _ckpt(2, velocity=_w(0.1)))
    assert not ckpt_equal(base, _ckpt(4, losses=(0.5,), velocity=_w(0.1)))
    assert not ckpt_equal(base, _ckpt(4, _w(3.0, 0.0), velocity=_w(0.1)))
    assert not ckpt_equal(base, _ckpt(4, velocity=_w(0.2)))
    assert not ckpt_equal(base, _ckpt(4))
    assert ckpt_equal(_ckpt(4), _ckpt(4))


# -- trial tables and setup errors -----------------------------------------


def test_chaos_trial_table():
    names = [t.name for t in chaos_trials(trials=2, steps=8, over_parity=True)]
    assert names[:2] == ["clean", "crash-1"]
    assert names[8:10] == ["random-0", "random-1"]
    assert names[-3:] == ["over-parity-2-r1", "cascade-r1", "drop"]
    with pytest.raises(ConfigurationError, match="at least 4 steps"):
        chaos_trials(steps=3)


def test_faults_demo_needs_two_ranks():
    with pytest.raises(ConfigurationError, match="at least 2 ranks"):
        faults_demo(ranks=1)
