"""End-to-end MLP training: serial reference and 1.5D distributed SGD.

:func:`distributed_mlp_train` runs synchronous mini-batch SGD for a
fully connected network on a simulated ``Pr x Pc`` process grid, using
exactly the layer products of Fig. 5.  Because synchronous SGD "obeys
the sequential consistency of the original algorithm" (paper Section
2), the distributed run must match :func:`serial_mlp_train`'s losses
and final weights to floating-point accuracy on *any* grid shape — the
integration tests assert precisely this.
"""

from __future__ import annotations

import dataclasses
import operator
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.dist.abft import make_guard
from repro.dist.grid import GridComm
from repro.dist.layers import relu, relu_grad
from repro.dist.loss import softmax_cross_entropy
from repro.dist.matmul15d import backward_dw_15d, backward_dx_15d, forward_15d
from repro.simmpi.sdc import payload_guard
from repro.dist.partition import BlockPartition
from repro.dist.sgd import SGD
from repro.errors import ConfigurationError, ShapeError
from repro.simmpi.engine import SimEngine, SimResult, resolve_engine
from repro.telemetry.heartbeat import emit_heartbeat
from repro.telemetry.spans import span

__all__ = [
    "MLPParams",
    "mlp_problem",
    "serial_mlp_train",
    "mlp_step",
    "mlp_train_program",
    "distributed_mlp_train",
    "mlp_run_record",
]


@dataclasses.dataclass
class MLPParams:
    """Weights of an MLP: ``weights[i]`` maps ``dims[i] -> dims[i+1]``."""

    weights: List[np.ndarray]

    @classmethod
    def init(cls, dims: Sequence[int], seed: int = 0, scale: float = 0.1) -> "MLPParams":
        """Deterministic Gaussian initialisation (same on every rank)."""
        if len(dims) < 2:
            raise ConfigurationError("an MLP needs at least input and output dims")
        rng = np.random.default_rng(seed)
        weights = [
            (scale * rng.standard_normal((dims[i + 1], dims[i]))).astype(np.float64)
            for i in range(len(dims) - 1)
        ]
        return cls(weights)

    @property
    def dims(self) -> Tuple[int, ...]:
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)

    def copy(self) -> "MLPParams":
        return MLPParams([w.copy() for w in self.weights])


def mlp_problem(
    dims: Sequence[int], batch: int, seed: int = 0, samples: Optional[int] = None
) -> Tuple[MLPParams, np.ndarray, np.ndarray]:
    """A seeded toy problem ``(params0, x, y)``: ``(dims[0], samples)``
    standard-normal features, labels in ``[0, dims[-1])`` and
    :meth:`MLPParams.init` weights, all from ``seed``; ``samples``
    defaults to ``4 * batch``."""
    n = samples if samples is not None else 4 * batch
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((dims[0], n))
    y = rng.integers(0, dims[-1], n)
    return MLPParams.init(dims, seed=seed), x, y


def _check_batch_steps(batch, steps) -> None:
    """Reject a batch or step count before any rank starts running."""
    try:
        ok = operator.index(batch) >= 1 and operator.index(steps) >= 0
    except TypeError:
        ok = False
    if not ok:
        raise ConfigurationError(
            f"batch must be an integer >= 1 and steps an integer >= 0, "
            f"got batch={batch!r}, steps={steps!r}"
        )


def _batch_columns(step: int, batch: int, n: int, schedule=None) -> np.ndarray:
    """Batch indices for ``step``: a :class:`~repro.data.batches.BatchSchedule`
    when given, else the default deterministic cyclic window."""
    if schedule is not None:
        return schedule.columns(step)
    return (step * batch + np.arange(batch)) % n


def _mlp_forward(weights: Sequence[np.ndarray], x: np.ndarray):
    """Shared forward recursion: returns (activations, pre_activations)."""
    acts = [x]
    zs = []
    for i, w in enumerate(weights):
        z = w @ acts[-1]
        zs.append(z)
        acts.append(relu(z) if i < len(weights) - 1 else z)
    return acts, zs


def serial_mlp_train(
    params: MLPParams,
    x: np.ndarray,
    y: np.ndarray,
    *,
    batch: int,
    steps: int,
    lr: float = 0.05,
    momentum: float = 0.0,
    weight_decay: float = 0.0,
    schedule=None,
    lr_schedule=None,
) -> Tuple[MLPParams, List[float]]:
    """Single-process reference SGD; mutates and returns a copy of ``params``.

    ``schedule`` is an optional :class:`~repro.data.batches.BatchSchedule`
    (default: cyclic windows); ``lr_schedule`` an optional
    ``step -> learning rate`` callable applied before each update.
    """
    if x.ndim != 2:
        raise ShapeError(f"x must be (features, samples), got {x.shape}")
    n = x.shape[1]
    if y.shape != (n,):
        raise ShapeError(f"y shape {y.shape} != ({n},)")
    if batch < 1 or batch > n:
        raise ConfigurationError(f"batch {batch} must lie in [1, {n}]")
    params = params.copy()
    weights = params.weights
    opt = SGD(lr=lr, momentum=momentum, weight_decay=weight_decay)
    losses: List[float] = []
    for step in range(steps):
        if lr_schedule is not None:
            opt.lr = float(lr_schedule(step))
        cols = _batch_columns(step, batch, n, schedule)
        xb, yb = x[:, cols], y[cols]
        acts, zs = _mlp_forward(weights, xb)
        loss, dz = softmax_cross_entropy(zs[-1], yb, global_batch=batch)
        losses.append(loss)
        grads: List[Optional[np.ndarray]] = [None] * len(weights)
        for i in range(len(weights) - 1, -1, -1):
            grads[i] = dz @ acts[i].T
            if i > 0:
                da = weights[i].T @ dz
                dz = relu_grad(zs[i - 1], da)
        opt.step(weights, grads)  # type: ignore[arg-type]
    return params, losses


def mlp_step(
    comm, grid: GridComm, w_locals: List[np.ndarray], opt: SGD,
    row_parts: Sequence[BlockPartition], col_part: BlockPartition,
    x: np.ndarray, y: np.ndarray, *, step: int, batch: int, schedule,
    lr_schedule, guard,
) -> float:
    """One synchronous 1.5D SGD step (the layer products of Fig. 5) on this
    rank's blocks, updating ``w_locals`` in place; returns the global loss.
    The plain and the elastic trainer both run their steps through it."""
    num_layers = len(w_locals)
    if lr_schedule is not None:
        opt.lr = float(lr_schedule(step))
    cols = _batch_columns(step, batch, x.shape[1], schedule)
    my_cols = col_part.take(cols, grid.col)
    a_local = x[:, my_cols]
    yb_local = y[my_cols]
    # Forward: cache the full (d_i x b_c) activations per layer.
    acts = [a_local]
    zs = []
    for i in range(num_layers):
        with span("fwd", comm=comm, layer=i):
            z = forward_15d(
                grid, w_locals[i], acts[-1],
                layer=i, step=step, guard=guard,
            )
        zs.append(z)
        acts.append(relu(z) if i < num_layers - 1 else z)
    with span("loss", comm=comm):
        loss_local, dz = softmax_cross_entropy(
            zs[-1], yb_local, global_batch=batch
        )
        # Global loss: shard losses add over the Pc batch groups.
        loss_global = float(
            grid.row_comm.allreduce(np.array([loss_local]), algorithm="ring")[0]
        )
    # Backward.
    grads: List[Optional[np.ndarray]] = [None] * num_layers
    for i in range(num_layers - 1, -1, -1):
        dy_rows = row_parts[i].take(dz, grid.row, axis=0)
        with span("bwd_dw", comm=comm, layer=i):
            grads[i] = backward_dw_15d(
                grid, dy_rows, acts[i],
                layer=i, step=step, guard=guard,
            )
        if i > 0:
            with span("bwd_dx", comm=comm, layer=i):
                da = backward_dx_15d(
                    grid, w_locals[i], dy_rows,
                    layer=i, step=step, guard=guard,
                )
            dz = relu_grad(zs[i - 1], da)
    with span("update", comm=comm):
        opt.step(w_locals, grads)  # type: ignore[arg-type]
    return loss_global


def mlp_train_program(
    comm,
    params0: MLPParams,
    x: np.ndarray,
    y: np.ndarray,
    *,
    pr: int,
    pc: int,
    batch: int,
    steps: int,
    lr: float = 0.05,
    momentum: float = 0.0,
    weight_decay: float = 0.0,
    schedule=None,
    lr_schedule=None,
    sdc=None,
):
    """The SPMD rank program for 1.5D MLP training.

    Every rank receives the same ``params0``/``x``/``y`` (mimicking
    identical initialisation and a shared dataset) and keeps only its
    1.5D blocks: weight rows ``rows_r`` per layer and batch columns
    ``cols_c`` per step.  Returns ``(local_weight_blocks, losses)``.

    ``sdc`` enables the ABFT guards of :mod:`repro.dist.abft`: a policy
    mode string (``"detect"``/``"correct"``/``"recompute"``), an
    :class:`~repro.simmpi.sdc.SDCPolicy`, or a shared
    :class:`~repro.dist.abft.SDCGuard`.  Guards checksum every local
    GEMM output block and escort every in-flight payload with an 8-byte
    digest; with no injected faults the guarded run is bit-identical to
    an unguarded one.
    """
    grid = GridComm(comm, pr, pc)
    guard = make_guard(sdc)
    dims = params0.dims
    row_parts = [BlockPartition(d_out, grid.pr) for d_out in dims[1:]]
    w_locals = [
        part.take(w, grid.row, axis=0).copy()
        for part, w in zip(row_parts, params0.weights)
    ]
    col_part = BlockPartition(batch, grid.pc)
    opt = SGD(lr=lr, momentum=momentum, weight_decay=weight_decay)
    losses: List[float] = []
    with payload_guard(guard):
        for step in range(steps):
            with span("step", comm=comm, step=step):
                loss = mlp_step(
                    comm, grid, w_locals, opt, row_parts, col_part, x, y,
                    step=step, batch=batch, schedule=schedule,
                    lr_schedule=lr_schedule, guard=guard,
                )
                losses.append(loss)
                emit_heartbeat(comm, step=step, loss=loss, phase="train")
    return w_locals, losses


def assemble_weights(
    result: SimResult, dims: Sequence[int], pr: int, pc: int
) -> List[np.ndarray]:
    """Rebuild full weight matrices from the rank-local blocks of a run."""
    weights: List[np.ndarray] = []
    for layer in range(len(dims) - 1):
        blocks = []
        for r in range(pr):
            world_rank = r * pc + 0  # any column replica; take c = 0
            w_locals, _ = result.values[world_rank]
            blocks.append(w_locals[layer])
        weights.append(np.vstack(blocks))
    return weights


def distributed_mlp_train(
    params0: MLPParams,
    x: np.ndarray,
    y: np.ndarray,
    *,
    pr: int,
    pc: int,
    batch: int,
    steps: int,
    lr: float = 0.05,
    momentum: float = 0.0,
    weight_decay: float = 0.0,
    schedule=None,
    lr_schedule=None,
    sdc=None,
    engine: Optional[SimEngine] = None,
) -> Tuple[List[np.ndarray], List[float], SimResult]:
    """Train on a simulated ``pr x pc`` grid; returns full weights, losses, run.

    The returned losses are the per-step global losses (identical on
    every rank); the weights are reassembled from the rank blocks.
    ``engine`` is the :class:`~repro.simmpi.engine.SimEngine` with
    ``pr * pc`` ranks to run on (default: a plain one); it carries every
    engine setting — machine, tracing, metrics sink, faults — and lets
    callers keep the tracer handle, e.g. to build a
    :class:`~repro.analysis.record.RunRecord` afterwards.
    ``sdc`` turns on the ABFT guards (see :func:`mlp_train_program`).
    """
    _check_batch_steps(batch, steps)
    engine = resolve_engine(engine, pr * pc)
    # One shared guard so all ranks aggregate into the same sdc.* counters.
    guard = make_guard(sdc)
    result = engine.run(
        mlp_train_program,
        params0,
        x,
        y,
        pr=pr,
        pc=pc,
        batch=batch,
        steps=steps,
        lr=lr,
        momentum=momentum,
        weight_decay=weight_decay,
        schedule=schedule,
        lr_schedule=lr_schedule,
        sdc=guard,
    )
    weights = assemble_weights(result, params0.dims, pr, pc)
    losses = list(result.values[0][1])
    return weights, losses, result


def mlp_run_record(
    engine: SimEngine,
    sim: SimResult,
    *,
    dims: Sequence[int],
    pr: int,
    pc: int,
    batch: int,
    steps: int,
    sdc=None,
    meta=None,
    health_config=None,
    host=None,
):
    """Build the :class:`~repro.analysis.record.RunRecord` of a traced run.

    ``engine``/``sim`` are the tracing engine the run executed on and
    its result; see :func:`~repro.analysis.record.build_run_record` for
    ``sdc``, ``meta`` and ``health_config``.  ``host`` opts in to the v5
    host-time block (e.g. ``repro.profile.host_block(engine)``).
    """
    from repro.analysis.record import build_run_record

    config = {
        "dims": list(int(d) for d in dims),
        "batch": int(batch),
        "steps": int(steps),
    }
    return build_run_record(
        engine,
        sim,
        trainer="train",
        config=config,
        pr=pr,
        pc=pc,
        sdc=sdc,
        meta=meta,
        health_config=health_config,
        host=host,
    )
