"""The simmpi engine's golden-fixture cases, reduced to exact digests.

Every case runs a deterministic program — collectives, all four
trainers, and the fault/SDC/checkpoint gauntlets — and reduces what it
observes to JSON: per-rank return values as SHA-256 over
dtype/shape/bytes (recursively), final virtual clocks as ``float.hex``,
the failed-rank set, the canonical trace as SHA-256 plus event count,
and for the failure cases the exception type and full message.

``tests/golden/backend_matrix.json`` freezes :func:`observe_all`
(written by ``tests/golden/generate_backend_matrix.py``);
``tests/test_backend_matrix.py`` and ``benchmarks/bench_simmpi.py``
check the engine against it.  This module needs only numpy, so the
bench gate can import it without pytest.
"""

import dataclasses
import functools
import hashlib
import json
import os

import numpy as np

from repro.data.synthetic import synthetic_classification, synthetic_images
from repro.dist.elastic import elastic_mlp_train
from repro.dist.integrated import (
    CNNParams,
    IntegratedCNNConfig,
    distributed_cnn_train,
)
from repro.dist.summa2d import summa_matmul
from repro.dist.train import MLPParams, distributed_mlp_train
from repro.errors import RankFailedError
from repro.simmpi import collops
from repro.simmpi.engine import SimEngine
from repro.simmpi.faults import (
    BitFlipFault,
    Cascade,
    Crash,
    FaultPlan,
    LinkFault,
    MessageDrop,
    Straggler,
    TransientFault,
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "backend_matrix.json")


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------


def _feed(h, obj):
    """Hash ``obj`` exactly: types, array dtype/shape/bytes, float bits."""
    h.update(type(obj).__name__.encode() + b"|")
    if isinstance(obj, (np.ndarray, np.generic)):
        arr = np.asarray(obj)
        h.update(f"{arr.dtype.str}{arr.shape}|".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    elif isinstance(obj, float):
        h.update(obj.hex().encode())
    elif isinstance(obj, dict):
        h.update(f"{len(obj)}|".encode())
        for key, value in obj.items():
            _feed(h, key)
            _feed(h, value)
    elif isinstance(obj, (list, tuple)):
        h.update(f"{len(obj)}|".encode())
        for item in obj:
            _feed(h, item)
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            _feed(h, getattr(obj, field.name))
    else:
        h.update(repr(obj).encode())
    h.update(b";")


def digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def hexes(floats):
    return [float(x).hex() for x in floats]


def trace_digest(engine):
    events = engine.tracer.canonical()
    return {"sha256": digest(events), "events": len(events)}


def observe_run(result, engine):
    """Values, clocks, failed set and canonical trace of one engine run."""
    return {
        "values": [digest(v) for v in result.values],
        "clocks": hexes(result.clocks),
        "failed": list(result.failed),
        "trace": trace_digest(engine),
    }


def observe_failure(engine, prog):
    """Run ``prog`` expecting a failed run; record every rank's exception."""
    try:
        engine.run(prog)
    except RankFailedError as exc:
        return {
            "failures": {
                str(rank): [type(err).__name__, str(err)]
                for rank, err in sorted(exc.failures.items())
            }
        }
    raise AssertionError("the run was expected to fail")


def run_prog(size, prog, *args, engine_kwargs=None):
    engine_kwargs = dict(engine_kwargs or {})
    engine_kwargs.setdefault("trace", True)
    engine = SimEngine(size, **engine_kwargs)
    return observe_run(engine.run(prog, *args), engine), engine


# ---------------------------------------------------------------------------
# cases: id -> zero-argument callable returning a JSON-able observation
# ---------------------------------------------------------------------------

CASES = {}


def case(case_id):
    def register(fn):
        CASES[case_id] = fn
        return fn

    return register


def _collective_zoo(comm):
    rank = comm.rank
    out = {}
    vec = np.arange(6, dtype=np.float64) * (rank + 1)
    for alg in ("ring", "rd", "rabenseifner", "naive"):
        out[f"allreduce.{alg}"] = collops.allreduce(comm, vec, algorithm=alg)
    for alg in ("bruck", "ring", "naive"):
        out[f"allgather.{alg}"] = collops.allgather_blocks(
            comm, np.full(3, float(rank)), algorithm=alg
        )
    out["reduce_scatter"] = collops.reduce_scatter_ring(
        comm, np.arange(2 * comm.size, dtype=np.float64) + rank
    )
    out["bcast"] = collops.bcast_binomial(comm, {"root": 7, "rank0": True}, root=0)
    out["gather"] = comm.gather((rank, rank * rank), root=comm.size - 1)
    out["scatter"] = comm.scatter(
        [np.full(2, float(i)) for i in range(comm.size)] if rank == 0 else None
    )
    out["reduce"] = comm.reduce(np.ones(4) * rank, root=0)
    comm.barrier()
    out["sendrecv"] = comm.sendrecv(
        rank, dest=(rank + 1) % comm.size, source=(rank - 1) % comm.size
    )
    # nonblocking: values are pinned; probe results are out of contract.
    req = comm.irecv(source=(rank - 1) % comm.size, tag=9)
    comm.send(np.float64(rank) / 3.0, dest=(rank + 1) % comm.size, tag=9)
    out["irecv"] = req.wait()
    return out


for _size in (1, 2, 3, 5, 8):
    case(f"collectives/size={_size}")(
        lambda size=_size: run_prog(size, _collective_zoo)[0]
    )


def _split_prog(comm):
    rank = comm.rank
    row = comm.split(color=rank % 2, key=rank)
    a = row.allreduce(np.arange(4, dtype=np.float64) + rank)
    col = comm.split(color=rank // 2)
    b = col.allgather_object(rank * 10)
    return a, b, (row.rank, row.size, col.rank, col.size)


for _size in (4, 6):
    case(f"split/size={_size}")(lambda size=_size: run_prog(size, _split_prog)[0])


def _halo_prog(comm):
    local = np.full((3, 4), float(comm.rank))
    return collops.halo_exchange_1d(comm, local[:1], local[-1:])


case("halo/size=5")(lambda: run_prog(5, _halo_prog)[0])


X, Y = synthetic_classification(10, 48, 5, seed=7)


def observe_mlp(pr, pc, steps, engine):
    params0 = MLPParams.init((10, 9, 5), seed=1)
    w, losses, sim = distributed_mlp_train(
        params0, X, Y, pr=pr, pc=pc, batch=12, steps=steps, engine=engine
    )
    obs = {
        "weights": digest(w),
        "losses": digest(losses),
        "clocks": hexes(sim.clocks),
    }
    if engine is not None and engine.tracer.enabled:
        obs["trace"] = trace_digest(engine)
    return obs


for _pr, _pc in ((2, 2), (3, 2), (1, 4)):
    case(f"mlp/{_pr}x{_pc}")(
        lambda pr=_pr, pc=_pc: observe_mlp(pr, pc, 3, SimEngine(pr * pc, trace=True))
    )

case("mlp-default-engine/2x2")(lambda: observe_mlp(2, 2, 2, None))


@case("cnn/2x2")
def _cnn_case():
    config = IntegratedCNNConfig(
        in_channels=2, height=8, width=8, conv_channels=(4,),
        conv_kernels=(3,), pool_after=(True,), fc_dims=(12, 5),
    )
    params0 = CNNParams.init(config, seed=3)
    xc, yc = synthetic_images(16, 2, 8, 8, 5, seed=5)
    engine = SimEngine(4, trace=True)
    params, losses, sim = distributed_cnn_train(
        config, params0, xc, yc, pr=2, pc=2, batch=8, steps=2, engine=engine
    )
    return {
        "conv": digest(params.conv_weights),
        "fc": digest(params.fc_weights),
        "losses": digest(losses),
        "clocks": hexes(sim.clocks),
        "trace": trace_digest(engine),
    }


def _observe_elastic(res):
    return {
        "weights": digest(res.weights),
        "losses": digest(res.losses),
        "clocks": hexes(res.sim.clocks),
        "failed": list(res.sim.failed),
        "grids": [list(g) for g in res.grids],
        "restore_steps": list(res.restore_steps),
        "trace": trace_digest(res.engine),
    }


@case("elastic-clean/2x2")
def _elastic_clean_case():
    params0 = MLPParams.init((10, 8, 5), seed=2)
    res = elastic_mlp_train(
        params0, X, Y, pr=2, pc=2, batch=12, steps=4,
        checkpoint_every=2, engine=SimEngine(4, trace=True, supervise=True),
    )
    return _observe_elastic(res)


def _summa_case(pr, pc):
    m, n = 8, 6
    k = 2 * int(np.lcm(pr, pc))
    rng = np.random.default_rng(13)
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))

    def prog(comm):
        return summa_matmul(comm, a, b, pr, pc)

    return run_prog(pr * pc, prog)[0]


for _pr, _pc in ((2, 2), (2, 3)):
    case(f"summa/{_pr}x{_pc}")(lambda pr=_pr, pc=_pc: _summa_case(pr, pc))


def _fault_plan_prog(comm):
    acc = []
    for round_ in range(3):
        acc.append(comm.allreduce(np.ones(8) * (comm.rank + round_)))
    comm.barrier()
    return acc


FAULT_PLAN = FaultPlan(
    seed=21,
    transients=(TransientFault(rank=1, dest=2, send_index=1, attempts=2),),
    links=(LinkFault(src=2, dst=3, latency_factor=8.0,
                     bandwidth_factor=4.0, t_start=0.0, t_end=1.0),),
    stragglers=(Straggler(rank=3, factor=2.5, jitter=0.1),),
)


def fault_plan_run():
    return run_prog(4, _fault_plan_prog, engine_kwargs={"faults": FAULT_PLAN})


case("fault-plan/size=4")(lambda: fault_plan_run()[0])


def _barrier_prog(comm):
    comm.barrier()
    return comm.rank


@case("message-drop/size=2")
def _message_drop_case():
    plan = FaultPlan(seed=2, drops=(MessageDrop(rank=0, dest=1, send_index=0),))
    return observe_failure(SimEngine(2, faults=plan), _barrier_prog)


def _crash_shrink_case(mode):
    params0 = MLPParams.init((10, 8, 5), seed=4)
    plan = FaultPlan(
        seed=9,
        crashes=(Crash(rank=1, at_step=2),),
        cascades=(Cascade(rank=2, at_recovery=1),),
    )
    res = elastic_mlp_train(
        params0, X, Y, pr=2, pc=2, batch=12, steps=6,
        checkpoint_every=2, ckpt_mode=mode,
        engine=SimEngine(4, trace=True, faults=plan, supervise=True),
    )
    return _observe_elastic(res)


for _mode in ("erasure", "replicate"):
    case(f"crash-shrink/{_mode}")(lambda mode=_mode: _crash_shrink_case(mode))


def sdc_run(policy):
    params0 = MLPParams.init((10, 8, 5), seed=6)
    plan = FaultPlan(
        seed=3,
        bitflips=(BitFlipFault(rank=1, layer=0, step=1, gemm="fwd",
                               element=2, bit=12),),
    )
    engine = SimEngine(4, trace=True, faults=plan)
    w, losses, sim = distributed_mlp_train(
        params0, X, Y, pr=2, pc=2, batch=12, steps=3, engine=engine, sdc=policy,
    )
    obs = {
        "weights": digest(w),
        "losses": digest(losses),
        "clocks": hexes(sim.clocks),
        "trace": trace_digest(engine),
    }
    return obs, engine


for _policy in ("correct", "recompute"):
    case(f"sdc/{_policy}")(lambda policy=_policy: sdc_run(policy)[0])


def _deadlock_prog(comm):
    if comm.rank == 0:
        comm.recv(source=1, tag=99)  # nobody ever sends this


case("deadlock/size=2")(
    lambda: observe_failure(SimEngine(2), _deadlock_prog)
)


def _reuse_prog(comm, shift):
    return comm.allreduce(np.arange(5, dtype=np.float64) + comm.rank + shift)


@case("engine-reuse/size=3")
def _engine_reuse_case():
    engine = SimEngine(3, trace=True)
    obs = {}
    for shift in (0, 1):
        res = engine.run(_reuse_prog, shift)
        obs[f"run{shift}"] = {
            "values": [digest(v) for v in res.values],
            "clocks": hexes(res.clocks),
        }
    obs["trace"] = trace_digest(engine)
    return obs


def observe_all():
    """Every case's observation, keyed by case id (the golden payload)."""
    return {case_id: fn() for case_id, fn in CASES.items()}


@functools.lru_cache(maxsize=None)
def golden():
    """The frozen observations, keyed by case id."""
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)["cases"]
