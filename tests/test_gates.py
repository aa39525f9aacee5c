"""The bench-gate harness (:mod:`repro.gate`) and the six gates on it.

No gate workload runs here.  The five ``benchmarks/bench_*.py`` gates
get a stub ``measure`` that returns a committed (possibly perturbed)
baseline, and ``repro bench`` gets a stub ``run_search_bench``.  Each
gate is then driven through its real command line, so every check, exit
code and message is exercised in milliseconds.
"""

import dataclasses
import glob
import importlib.util
import json
import os
import sys

import pytest

from repro.cli import main as cli_main
from repro.gate import Check
from repro.observe.registry import entry_from_payload
from repro.search import bench as search_bench

BENCH_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "benchmarks")


def _load_script_gate(name):
    path = os.path.join(BENCH_DIR, f"bench_{name}.py")
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GATE


sys.path.insert(0, BENCH_DIR)  # the gate scripts import gate_mlp
try:
    GATES = {
        name: _load_script_gate(name)
        for name in ("checkpoint", "observe", "profile", "sdc", "simmpi")
    }
finally:
    sys.path.remove(BENCH_DIR)
GATES["search"] = search_bench.GATE

CHECKS = [(name, i) for name, gate in GATES.items() for i in range(len(gate.checks))]


def committed(name):
    with open(os.path.join(BENCH_DIR, f"BENCH_{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def default_tolerance(name):
    return search_bench.DEFAULT_TOLERANCE if name == "search" else 0.0


def run(name, record, baseline, *argv, tmp_path, monkeypatch):
    """Gate ``record`` against ``baseline`` through ``name``'s command line."""
    path = tmp_path / "baseline.json"
    path.write_text(baseline if isinstance(baseline, str) else json.dumps(baseline))
    argv = ["--baseline", str(path), *argv]
    if name != "search":
        fields = {k: v for k, v in record.items() if k not in ("schema", "config")}
        return dataclasses.replace(GATES[name], measure=lambda: fields).main(argv)
    measured = search_bench.BenchRecord.from_payload(record)
    if record["speedup"] != measured.speedup:
        # The speedup is derived from the timings; carry a perturbed one.
        measured = dataclasses.replace(
            measured, engine_s=measured.serial_s / record["speedup"]
        )
    monkeypatch.setattr(search_bench, "run_search_bench", lambda **_: measured)
    return cli_main(["bench", *argv])


def broken(check, record):
    """A copy of ``record`` (its own baseline) whose ``check.key`` fails."""
    limit = check.bound(record, record, 0.0)
    if check.kind == "flag":
        value = False
    elif check.kind == "same":
        value = limit + 1
    elif check.kind == "ceiling":
        value = 2 * limit + 1
    else:  # floor, at_least
        value = limit / 2
    return {**record, check.key: value}


@pytest.fixture
def gate_cli(tmp_path, monkeypatch):
    def call(name, record, baseline, *argv):
        return run(name, record, baseline, *argv,
                   tmp_path=tmp_path, monkeypatch=monkeypatch)

    call.baseline_path = tmp_path / "baseline.json"
    return call


@pytest.mark.parametrize("name", GATES)
class TestCommittedBaseline:
    def test_judged_as_its_own_record_passes(self, name):
        baseline = committed(name)
        assert GATES[name].judge(baseline, baseline, 0.0) == []

    def test_gate_passes(self, name, gate_cli, capsys):
        baseline = committed(name)
        assert gate_cli(name, baseline, baseline) == 0
        assert ": PASS (" in capsys.readouterr().out

    def test_update_baseline_rewrites_it_byte_for_byte(self, name, gate_cli):
        baseline = committed(name)
        assert gate_cli(name, baseline, {}, "--update-baseline") == 0
        with open(os.path.join(BENCH_DIR, f"BENCH_{name}.json"), encoding="utf-8") as fh:
            assert gate_cli.baseline_path.read_text() == fh.read()

    def test_ingests_under_its_series(self, name):
        entry = entry_from_payload(committed(name))
        assert entry.series == f"bench:{name}"


@pytest.mark.parametrize("name,index", CHECKS)
def test_perturbed_check_exits_1(name, index, gate_cli, capsys):
    baseline = committed(name)
    check = GATES[name].checks[index]
    record = broken(check, baseline)
    assert gate_cli(name, record, baseline) == 1
    expected = check.failure(record, baseline, default_tolerance(name))
    assert f"REGRESSION: {expected}" in capsys.readouterr().err


@pytest.mark.parametrize("name", GATES)
class TestConfigurationErrors:
    def test_schema_mismatch(self, name, gate_cli, capsys):
        baseline = committed(name)
        other = {**baseline, "schema": "repro.other.bench/v9"}
        assert gate_cli(name, baseline, other) == 2
        assert "schema" in capsys.readouterr().err

    def test_config_mismatch(self, name, gate_cli, capsys):
        baseline = committed(name)
        config = dict(baseline["config"])
        key = next(k for k, v in sorted(config.items()) if isinstance(v, (int, float)))
        config[key] += 1
        assert gate_cli(name, baseline, {**baseline, "config": config}) == 2
        assert "configs differ" in capsys.readouterr().err

    def test_list_baseline(self, name, gate_cli, capsys):
        assert gate_cli(name, committed(name), [committed(name)]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_invalid_json(self, name, gate_cli, capsys):
        assert gate_cli(name, committed(name), "{not json") == 2
        assert "bad baseline" in capsys.readouterr().err

    def test_missing_file(self, name, gate_cli, capsys, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert gate_cli(name, committed(name), {}, "--baseline", missing) == 2
        assert "cannot read baseline" in capsys.readouterr().err

    @pytest.mark.parametrize("tolerance", ["1.5", "1", "-0.1"])
    def test_tolerance_outside_unit_interval(self, name, tolerance, gate_cli, capsys):
        baseline = committed(name)
        assert gate_cli(name, baseline, baseline, "--tolerance", tolerance) == 2
        assert "tolerance must be in [0, 1)" in capsys.readouterr().err


def _required_keys(name):
    # repro bench rebuilds the baseline speedup from the baseline timings.
    return ("serial_s", "engine_s") if name == "search" else GATES[name].reads


@pytest.mark.parametrize(
    "name,key", [(name, key) for name in GATES for key in _required_keys(name)]
)
def test_baseline_missing_a_key_exits_2(name, key, gate_cli, capsys):
    baseline = committed(name)
    del baseline[key]
    assert gate_cli(name, committed(name), baseline) == 2
    assert key in capsys.readouterr().err


def test_non_numeric_limit_exits_2(gate_cli, capsys):
    baseline = committed("sdc")
    assert gate_cli("sdc", baseline, {**baseline, "max_overhead": "1.05"}) == 2
    assert "max_overhead must be a number" in capsys.readouterr().err


def test_tolerance_widens_ceilings(gate_cli, capsys):
    baseline = committed("sdc")
    record = {**baseline, "overhead": 1.2}
    assert gate_cli("sdc", record, baseline) == 1
    assert gate_cli("sdc", record, baseline, "--tolerance", "0.25") == 0
    assert "overhead <= 1.312" in capsys.readouterr().out


def test_sdc_and_observe_share_one_job():
    assert GATES["sdc"].config is GATES["observe"].config


def test_unknown_check_kind_rejected():
    with pytest.raises(ValueError, match="unknown check kind"):
        Check("maximum", "overhead", "never")


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(BENCH_DIR, "BENCH_*.json")))
)
def test_every_bench_file_ingests(path, tmp_path, capsys):
    registry = str(tmp_path / "registry.jsonl")
    assert cli_main(["ingest", "--registry", registry, path]) == 0
    name = os.path.basename(path)[len("BENCH_"):-len(".json")]
    assert f"series 'bench:{name}'" in capsys.readouterr().out
