"""The telemetry golden-fixture runs, reduced to exact JSON.

Four runs feed a :class:`~repro.telemetry.metrics.MetricsRegistry`: a
traced 2x2 MLP, the traced 8x32 MLP 64-64-32 of the benchmark, an
elastic run with a crash, ABFT guards, erasure checkpoints and a
:class:`~repro.observe.health.HealthMonitor` (the ``fault.*``, ``hb``
and ``ckpt.*`` events, ``set`` and ``set_max`` gauges), and an
allreduce followed by the deadlocking program of
:mod:`tests.backend_cases` (the metrics a failed run leaves behind).
Each run is reduced to its registry rows in ``to_rows()`` order with
every float as ``float.hex``, followed by one row of bucket fills per
histogram series: a SHA-256 and count of all rows, and the rows
themselves when there are at most :data:`MAX_LISTED` of them.  A
traced run adds its critical-path summary, a SHA-256 of the per-event
slack and the path as ``(rank, op, t_start)`` rows.

``tests/golden/telemetry_golden.json`` freezes :func:`observe_all`
(written by ``tests/golden/generate_telemetry_golden.py``);
``tests/test_telemetry_golden.py`` checks it.
"""

import hashlib
import json
import os

import numpy as np

from repro.analysis.critical import critical_path
from repro.dist.elastic import elastic_mlp_train
from repro.dist.train import distributed_mlp_train, mlp_problem
from repro.errors import RankFailedError
from repro.observe.health import HealthMonitor
from repro.simmpi.engine import SimEngine
from repro.simmpi.faults import Crash, FaultPlan
from repro.telemetry.metrics import MetricsRegistry
from tests.backend_cases import _deadlock_prog

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "telemetry_golden.json")

#: Runs with more registry rows than this pin them by digest only.
MAX_LISTED = 200


def exact(obj):
    """``obj`` with every float replaced by its ``float.hex``."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: exact(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [exact(v) for v in obj]
    return obj


def observe(registry, engine=None, sim=None, critical=True):
    """Registry rows, plus (unless ``critical`` is false) the critical
    path of a traced run."""
    rows = [exact(list(row.values())) for row in registry.to_rows()]
    rows += [
        [metric.name, "buckets", str(key), cell["buckets"]]
        for metric in registry.metrics()
        if metric.kind == "histogram"
        for key, cell in sorted(metric.series().items(), key=lambda kv: str(kv[0]))
    ]
    obs = {
        "n_rows": len(rows),
        "rows_sha256": hashlib.sha256(json.dumps(rows).encode()).hexdigest(),
    }
    if len(rows) <= MAX_LISTED:
        obs["rows"] = rows
    if sim is not None and critical:
        cp = critical_path(
            engine.tracer.canonical(), clocks=sim.clocks, dropped=engine.tracer.dropped
        )
        slack = ",".join(s.hex() for s in cp.slack)
        obs["critical"] = {
            "summary": exact(cp.summary()),
            "slack_sha256": hashlib.sha256(slack.encode()).hexdigest(),
            "path": [[c.event.rank, c.event.op, c.event.t_start.hex()] for c in cp.path],
        }
    return obs


def mlp_run(pr, pc, dims, batch, steps=2):
    registry = MetricsRegistry()
    params, x, y = mlp_problem(dims, batch)
    engine = SimEngine(pr * pc, trace=True, metrics=registry)
    _, _, sim = distributed_mlp_train(
        params, x, y, pr=pr, pc=pc, batch=batch, steps=steps, engine=engine
    )
    return registry, engine, sim


def elastic_run():
    registry = MetricsRegistry()
    params, x, y = mlp_problem((10, 8, 5), 12, seed=4)
    plan = FaultPlan(seed=9, crashes=(Crash(rank=1, at_step=2),))
    engine = SimEngine(
        4, trace=True, faults=plan, supervise=True,
        metrics=HealthMonitor(registry=registry),
    )
    res = elastic_mlp_train(
        params, x, y, pr=2, pc=2, batch=12, steps=6, checkpoint_every=2,
        ckpt_mode="erasure", sdc="correct", engine=engine,
    )
    return registry, engine, res.sim


def _allreduce_then_deadlock(comm):
    comm.allreduce(np.ones(4) * comm.rank)
    _deadlock_prog(comm)


def deadlock_run():
    registry = MetricsRegistry()
    try:
        SimEngine(2, metrics=registry).run(_allreduce_then_deadlock)
    except RankFailedError:
        return registry, None, None
    raise AssertionError("the run was expected to deadlock")


#: Run id -> zero-argument callable returning ``(registry, engine, sim)``.
RUNS = {
    "mlp/2x2": lambda: mlp_run(2, 2, (12, 9, 5), 8),
    "mlp/8x32": lambda: mlp_run(8, 32, (64, 64, 32), 64),
    "elastic/crash-sdc-erasure": elastic_run,
    "allreduce-deadlock/size=2": deadlock_run,
}


def observe_all():
    return {run_id: observe(*fn()) for run_id, fn in RUNS.items()}
