"""Golden fixture for the metrics registry and the critical-path analysis.

Every run of :mod:`tests.telemetry_cases` must reproduce
``tests/golden/telemetry_golden.json`` bit for bit: registry rows in
``to_rows()`` order with floats as ``float.hex``, histogram bucket
fills, and for traced runs the critical-path summary, slack digest and
path.  The registry folds its buffered events in chunks of
``FOLD_CHUNK``; the first three runs repeat with chunks of 1 and 7 to
show that chunk boundaries change no bit.  Refresh deliberately with
``PYTHONPATH=src python tests/golden/generate_telemetry_golden.py``.
"""

import functools
import json

import pytest

from repro.analysis.critical import critical_path
from repro.errors import ConfigurationError
from repro.telemetry import metrics
from tests.telemetry_cases import GOLDEN_PATH, RUNS, observe


@functools.lru_cache(maxsize=None)
def golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)["runs"]


def assert_golden(run_id, observed, skip=()):
    expected = {k: v for k, v in golden()[run_id].items() if k not in skip}
    assert observed.keys() == expected.keys(), run_id
    for key in expected:
        assert observed[key] == expected[key], f"{run_id}: {key} differs from golden"


def test_goldens_cover_every_run():
    assert sorted(golden()) == sorted(RUNS)


@pytest.mark.parametrize("run_id", sorted(RUNS))
def test_run_matches_golden(run_id):
    assert_golden(run_id, observe(*RUNS[run_id]()))


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("run_id", list(RUNS)[:3])
def test_chunk_boundaries_change_no_bit(run_id, chunk, monkeypatch):
    monkeypatch.setattr(metrics, "FOLD_CHUNK", chunk)
    assert_golden(run_id, observe(*RUNS[run_id](), critical=False), skip=("critical",))


def test_trace_out_of_program_order_is_rejected():
    _, engine, sim = RUNS["mlp/2x2"]()
    events = list(engine.tracer.canonical())
    first, *_, last = [i for i, e in enumerate(events) if e.rank == 0 and e.op == "send"]
    events[first], events[last] = events[last], events[first]
    with pytest.raises(ConfigurationError, match="program order"):
        critical_path(events, clocks=sim.clocks)
