"""The perfbench workloads: seeded inputs, one op each, and output digests.

Every op trains through a trainer's public entry point on an engine
from :func:`make_engine`.  Inputs come only from the workload seed; the
trainers receive the generated arrays.  See ``README.md`` for why each
workload was chosen.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

# Module references, not imported names: the span layer patches
# ``train.mlp_run_record`` and ``audit.audit_events`` in place.
from repro.dist import elastic, integrated, train
from repro.observe.health import HealthMonitor
from repro.simmpi.engine import SimEngine
from repro.simmpi.faults import Crash, FaultPlan, Straggler
from repro.telemetry import audit
from repro.telemetry.metrics import MetricsRegistry

#: Digest keys that depend on the input values (checked against goldens
#: or the serial reference); every other key depends only on the shapes.
SEED_KEYS = ("weights_sha256", "losses", "health")

#: Serial-reference tolerance for seeds without a golden digest.  The
#: distributed sums run in another order than the serial ones, so
#: results agree to rounding, not bit for bit.
RTOL, ATOL = 1e-9, 1e-12


def make_engine(size: int, **kwargs: Any) -> SimEngine:
    """Every engine of the benchmark: the event backend, one line to change."""
    return SimEngine(size, backend="event", **kwargs)


@dataclasses.dataclass
class Outcome:
    """What one op produced, before digesting."""

    weights: List[np.ndarray]
    losses: List[float]
    clocks: Tuple[float, ...]
    extra: Dict[str, Any] = dataclasses.field(default_factory=dict)
    #: The run's tracer, for the span self-tests.
    tracer: Any = None


def _sha(arrays: Sequence[np.ndarray]) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def digest(out: Outcome, msgs: int, payload_bytes: int) -> Dict[str, Any]:
    """Bit-exact digest of an op: weights by the SHA-256 of their IEEE-754
    bytes, losses and makespan as ``float.hex``, clocks by SHA-256."""
    return {
        "weights_sha256": _sha(out.weights),
        "losses": [float(v).hex() for v in out.losses],
        "clocks_sha256": _sha([np.asarray(out.clocks)]),
        "makespan": max(out.clocks).hex(),
        "msgs": int(msgs),
        "payload_bytes": int(payload_bytes),
        **out.extra,
    }


def _close(got: Sequence[np.ndarray], want: Sequence[np.ndarray]) -> bool:
    return len(got) == len(want) and all(
        g.shape == w.shape and np.allclose(g, w, rtol=RTOL, atol=ATOL)
        for g, w in zip(got, want)
    )


def _gaussian(rng: np.random.Generator, shape: Tuple[int, ...]) -> np.ndarray:
    return 0.1 * rng.standard_normal(shape)


def _mlp_inputs(w: Any, seed: int) -> Dict[str, Any]:
    rng = np.random.default_rng(seed)
    dims, n = w.dims, w.batch * w.steps
    weights = [_gaussian(rng, (dims[i + 1], dims[i])) for i in range(len(dims) - 1)]
    return {
        "params": train.MLPParams(weights),
        "x": rng.standard_normal((dims[0], n)),
        "y": rng.integers(0, dims[-1], n),
    }


def _mlp_reference(w: Any, inp: Dict[str, Any]) -> Tuple[List[np.ndarray], List[float]]:
    params, losses = train.serial_mlp_train(
        inp["params"], inp["x"], inp["y"], batch=w.batch, steps=w.steps
    )
    return params.weights, losses


@dataclasses.dataclass(frozen=True)
class MLPWorkload:
    """``distributed_mlp_train`` on a ``pr x pc`` grid."""

    name: str
    dims: Tuple[int, ...]
    pr: int
    pc: int
    batch: int
    steps: int
    traced: bool = False

    def inputs(self, seed: int) -> Dict[str, Any]:
        return _mlp_inputs(self, seed)

    def run(self, inp: Dict[str, Any], trace: Optional[bool] = None) -> Outcome:
        traced = self.traced if trace is None else trace
        engine = make_engine(
            self.pr * self.pc, trace=traced, metrics=MetricsRegistry() if self.traced else None
        )
        weights, losses, sim = train.distributed_mlp_train(
            inp["params"], inp["x"], inp["y"], pr=self.pr, pc=self.pc,
            batch=self.batch, steps=self.steps, engine=engine,
        )
        extra: Dict[str, Any] = {}
        if self.traced:
            record = train.mlp_run_record(
                engine, sim, dims=self.dims, pr=self.pr, pc=self.pc,
                batch=self.batch, steps=self.steps,
            )
            report = audit.audit_events(
                engine.tracer.canonical(), self.dims, pr=self.pr, pc=self.pc,
                batch=self.batch, steps=self.steps,
            )
            extra = {
                "record_makespan": float(record.makespan_s).hex(),
                "audit_bandwidth_rel_error": report.max_bandwidth_rel_error,
                "audit_latency_rel_error": report.max_latency_rel_error,
            }
        return Outcome(weights, losses, sim.clocks, extra, engine.tracer)

    def reference(self, inp: Dict[str, Any]) -> Tuple[List[np.ndarray], List[float]]:
        return _mlp_reference(self, inp)

    def twin(self) -> "MLPWorkload":
        return dataclasses.replace(self, name=self.name + "-twin", pr=2, pc=2)


@dataclasses.dataclass(frozen=True)
class CNNWorkload:
    """``distributed_cnn_train``: ``pr`` splits image rows and FC rows."""

    name: str
    config: integrated.IntegratedCNNConfig
    pr: int
    pc: int
    batch: int
    steps: int
    momentum: float

    def inputs(self, seed: int) -> Dict[str, Any]:
        rng = np.random.default_rng(seed)
        cfg, n = self.config, self.batch * self.steps
        conv_ws, c_in = [], cfg.in_channels
        for c_out, k in zip(cfg.conv_channels, cfg.conv_kernels):
            conv_ws.append(_gaussian(rng, (c_out, c_in, k, k)))
            c_in = c_out
        fc_ws, d_in = [], cfg.feature_count()
        for d_out in cfg.fc_dims:
            fc_ws.append(_gaussian(rng, (d_out, d_in)))
            d_in = d_out
        return {
            "params": integrated.CNNParams(conv_ws, fc_ws),
            "x": rng.standard_normal((n, cfg.in_channels, cfg.height, cfg.width)),
            "y": rng.integers(0, cfg.fc_dims[-1], n),
        }

    def run(self, inp: Dict[str, Any], trace: Optional[bool] = None) -> Outcome:
        engine = make_engine(self.pr * self.pc, trace=bool(trace))
        params, losses, sim = integrated.distributed_cnn_train(
            self.config, inp["params"], inp["x"], inp["y"], pr=self.pr, pc=self.pc,
            batch=self.batch, steps=self.steps, momentum=self.momentum, engine=engine,
        )
        return Outcome(params.all_params(), losses, sim.clocks, tracer=engine.tracer)

    def reference(self, inp: Dict[str, Any]) -> Tuple[List[np.ndarray], List[float]]:
        params, losses = integrated.serial_cnn_train(
            self.config, inp["params"], inp["x"], inp["y"],
            batch=self.batch, steps=self.steps, momentum=self.momentum,
        )
        return params.all_params(), losses

    def twin(self) -> "CNNWorkload":
        cfg = dataclasses.replace(self.config, height=16, width=16)
        return dataclasses.replace(self, name=self.name + "-twin", config=cfg, pr=2, pc=2)


@dataclasses.dataclass(frozen=True)
class ElasticWorkload:
    """``elastic_mlp_train`` with erasure checkpoints, ABFT guards and a
    fixed fault plan (one crash, one straggler)."""

    name: str
    dims: Tuple[int, ...]
    pr: int
    pc: int
    batch: int
    steps: int
    crash_rank: int
    crash_step: int
    straggler_rank: int

    def plan(self) -> FaultPlan:
        return FaultPlan(
            seed=11,
            crashes=(Crash(rank=self.crash_rank, at_step=self.crash_step),),
            stragglers=(Straggler(rank=self.straggler_rank, factor=1.5, jitter=0.2),),
        )

    def inputs(self, seed: int) -> Dict[str, Any]:
        return _mlp_inputs(self, seed)

    def run(self, inp: Dict[str, Any], trace: Optional[bool] = None) -> Outcome:
        monitor = HealthMonitor()
        engine = make_engine(
            self.pr * self.pc, trace=True, metrics=monitor, faults=self.plan(), supervise=True
        )
        res = elastic.elastic_mlp_train(
            inp["params"], inp["x"], inp["y"], pr=self.pr, pc=self.pc,
            batch=self.batch, steps=self.steps, checkpoint_every=2,
            ckpt_mode="erasure", parity=1, sdc="correct", engine=engine,
        )
        extra = {
            "grids": [list(g) for g in res.grids],
            "restore_steps": list(res.restore_steps),
            "failed_ranks": list(res.sim.failed),
            "health": dict(sorted(monitor.counts().items())),
        }
        return Outcome(res.weights, res.losses, res.sim.clocks, extra, engine.tracer)

    def reference(self, inp: Dict[str, Any]) -> Tuple[List[np.ndarray], List[float]]:
        return _mlp_reference(self, inp)

    def twin(self) -> "ElasticWorkload":
        return dataclasses.replace(
            self, name=self.name + "-twin", pr=2, pc=2, crash_rank=1, straggler_rank=2
        )


WORKLOADS = {
    w.name: w
    for w in (
        MLPWorkload(
            "mlp-p512",
            dims=(64, 64, 32), pr=16, pc=32, batch=64, steps=2,
        ),
        MLPWorkload(
            "mlp-p256-traced",
            dims=(64, 64, 32), pr=8, pc=32, batch=64, steps=2, traced=True,
        ),
        CNNWorkload(
            "cnn-domain",
            config=integrated.IntegratedCNNConfig(
                in_channels=3, height=64, width=64, conv_channels=(16, 32),
                conv_kernels=(3, 3), pool_after=(True, True), fc_dims=(128, 10),
            ),
            pr=4, pc=2, batch=64, steps=4, momentum=0.9,
        ),
        ElasticWorkload(
            "elastic-faults",
            dims=(128, 256, 128, 32), pr=8, pc=8, batch=32, steps=8,
            crash_rank=5, crash_step=4, straggler_rank=9,
        ),
    )
}


def check(
    workload: Any,
    inp: Dict[str, Any],
    out: Outcome,
    got: Dict[str, Any],
    golden: Dict[str, Any],
    seed: int,
) -> List[str]:
    """Problems with a first op's digest ``got``; empty when it is correct.

    Shape keys must equal the committed golden of the workload.  Seed
    keys must equal the committed golden of ``seed`` when there is one,
    else the weights and losses must match the serial reference.
    """
    problems = []
    for key, want in golden["shape"].items():
        if got.get(key) != want:
            problems.append(f"{key}: {got.get(key)!r} != golden {want!r}")
    for key in ("audit_bandwidth_rel_error", "audit_latency_rel_error"):
        if key in got and got[key] != 0.0:
            problems.append(f"{key} = {got[key]!r}, expected exactly 0")
    seeded = golden["seeds"].get(str(seed))
    if seeded is not None:
        for key, want in seeded.items():
            if got.get(key) != want:
                problems.append(f"{key}: {got.get(key)!r} != golden {want!r}")
        return problems
    ref_weights, ref_losses = workload.reference(inp)
    if not _close(out.weights, ref_weights):
        problems.append("weights differ from the serial reference")
    if not np.allclose(out.losses, ref_losses, rtol=RTOL, atol=ATOL):
        problems.append("losses differ from the serial reference")
    return problems
