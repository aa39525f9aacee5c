"""Self-tests of the span layer on a P=4 twin of each workload.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import pytest

import workloads as wl
from spans import Spans, span_table

TWINS = {name: w.twin() for name, w in wl.WORKLOADS.items()}
SEED = 5


def _run(twin, spans=None, trace=None):
    inp = twin.inputs(SEED)
    if spans is None:
        return twin.run(inp, trace=trace), None
    with spans:
        spans.acc.begin()
        out = twin.run(inp, trace=trace)
        spans.acc.end()
    return out, (dict(spans.acc.self_ns), dict(spans.acc.counts), spans.acc.wall_ns)


@pytest.fixture(scope="module", params=sorted(TWINS))
def twin(request):
    return TWINS[request.param]


def test_wrapped_and_unwrapped_runs_give_equal_digests(twin):
    plain, _ = _run(twin)
    wrapped, _ = _run(twin, Spans())
    assert wl.digest(wrapped, 0, 0) == wl.digest(plain, 0, 0)


def test_self_times_and_unattributed_sum_to_the_traced_wall(twin):
    _, (self_ns, _, wall_ns) = _run(twin, Spans())
    assert wall_ns > 0
    assert sum(self_ns.values()) == wall_ns
    assert all(v >= 0 for v in self_ns.values())


def test_message_and_byte_counts_equal_the_tracer(twin):
    out, (_, counts, _) = _run(twin, Spans(), trace=True)
    tracer = out.tracer
    assert counts["comm.msgs"] == tracer.message_count() > 0
    sent = counts["comm.payload_bytes"] + counts.get("comm.guard_bytes", 0)
    assert sent == tracer.total_bytes()
    assert counts["tracing.records"] == len(tracer.events)


def test_counts_repeat_exactly(twin):
    _, (_, first, _) = _run(twin, Spans())
    _, (_, second, _) = _run(twin, Spans())
    assert first == second


def test_payload_sizing_calls_per_message():
    twin = TWINS["mlp-p512"]
    _, (_, untraced, _) = _run(twin, Spans(), trace=False)
    _, (_, traced, _) = _run(twin, Spans(), trace=True)
    assert untraced["network.sizing.calls"] == untraced["comm.msgs"]
    assert traced["network.sizing.calls"] == 4 * traced["comm.msgs"]


def test_uninstall_restores_every_entry_point():
    spans = Spans()
    owners = [(owner, name) for owner, name, _ in span_table(spans.acc)]
    before = [owner.__dict__[name] for owner, name in owners]
    with spans:
        assert all(owner.__dict__[name] is not orig
                   for (owner, name), orig in zip(owners, before))
    assert [owner.__dict__[name] for owner, name in owners] == before
