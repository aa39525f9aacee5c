"""Algorithm-based fault tolerance (ABFT) for the distributed GEMMs.

The paper reduces every training step to three matrix products per
layer (``Y = WX``, ``dX = W^T dY``, ``dW = dY X^T``) — exactly the
computation shape row/column-checksum ABFT protects at provably low
overhead.  This module guards the *stored output block* of each local
GEMM against silent data corruption:

1. the block is computed, and row + column checksums are captured from
   its clean bits (a 64-bit XOR fold per row and per column — exact,
   no floating-point rounding ambiguity);
2. corruption may strike the stored block (the simulator's
   :class:`~repro.simmpi.faults.BitFlipFault` models this
   deterministically);
3. the block is verified against its checksums before the value is
   handed to the collective.  A single flipped bit perturbs exactly
   one row fold and one column fold with the *same* XOR difference, so
   detection localises the corrupted element and the difference mask
   restores it — the classic Huang–Abraham construction, done bitwise.

What happens on detection is the :class:`~repro.simmpi.sdc.SDCPolicy`:
``detect`` raises, ``correct`` repairs single-element corruption in
place, ``recompute`` redoes the block with a bounded retry budget and
escalates to :class:`~repro.errors.SDCUnrecoverableError` — which the
elastic trainer (PR 1) absorbs exactly like a rank crash: shrink,
re-plan, checkpoint-restore.

In-flight payloads are guarded separately by the transport layer (see
:class:`~repro.simmpi.sdc.GuardedPayload` and
:meth:`~repro.simmpi.communicator.Comm._accept_payload`); that path
also covers the domain-parallel convolution halo exchanges of
:mod:`repro.dist.conv_domain`, whose traffic is plain sends/receives.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Tuple

import numpy as np

from repro.errors import SDCDetectedError, SDCUnrecoverableError
from repro.simmpi.sdc import (
    SDCMonitor,
    SDCPolicy,
    as_policy,
    flip_bit,
)
from repro.simmpi.tracing import TraceEvent

__all__ = [
    "Corruption",
    "SDCGuard",
    "block_checksums",
    "locate_corruption",
    "correct_element",
    "make_guard",
    "inject_unguarded",
]


def _bits_2d(block: np.ndarray) -> np.ndarray:
    """The block's raw bits as a 2-D uint64 view (copying if needed)."""
    return np.ascontiguousarray(np.atleast_2d(block)).view(np.uint64)


def block_checksums(block: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Row and column XOR checksums over the clean bits of ``block``."""
    bits = _bits_2d(block)
    return (
        np.bitwise_xor.reduce(bits, axis=1),
        np.bitwise_xor.reduce(bits, axis=0),
    )


@dataclasses.dataclass(frozen=True)
class Corruption:
    """Where a verification failed, and whether checksums can repair it.

    ``row``/``col`` index the corrupted element when ``correctable``;
    ``mask`` is the XOR difference that restores its clean bits.
    """

    row: int
    col: int
    mask: int
    correctable: bool


def locate_corruption(
    block: np.ndarray, row_sum: np.ndarray, col_sum: np.ndarray
) -> Optional[Corruption]:
    """Verify ``block`` against its checksums; ``None`` when clean.

    Any single flipped bit leaves exactly one row fold and one column
    fold differing, with equal masks — that intersection is the
    corrupted element.  Multi-element corruption is still *detected*
    (some fold differs) but reported uncorrectable.
    """
    bits = _bits_2d(block)
    d_row = np.bitwise_xor.reduce(bits, axis=1) ^ row_sum
    d_col = np.bitwise_xor.reduce(bits, axis=0) ^ col_sum
    rows = np.flatnonzero(d_row)
    cols = np.flatnonzero(d_col)
    if rows.size == 0 and cols.size == 0:
        return None
    correctable = (
        rows.size == 1 and cols.size == 1 and d_row[rows[0]] == d_col[cols[0]]
    )
    row = int(rows[0]) if rows.size else -1
    col = int(cols[0]) if cols.size else -1
    mask = int(d_row[rows[0]] if rows.size else d_col[cols[0]])
    return Corruption(row=row, col=col, mask=mask, correctable=correctable)


def correct_element(block: np.ndarray, corruption: Corruption) -> None:
    """Repair one corrupted element in place from its XOR difference mask."""
    block_2d = np.atleast_2d(block)  # a view: writes reach the original
    clean = np.float64(block_2d[corruption.row, corruption.col])
    block_2d[corruption.row, corruption.col] = (
        clean.view(np.uint64) ^ np.uint64(corruption.mask)
    ).view(np.float64)


def _record_fault(comm, op: str, tag: Tuple) -> None:
    t = comm.clock
    comm._engine.tracer.record(
        TraceEvent(comm.world_rank, op, -1, 0, t, t, tag)
    )


class SDCGuard:
    """Per-run ABFT guard: a policy plus shared ``sdc.*`` counters.

    One guard object is shared by all ranks of a run (the monitor is
    thread-safe); activate it for a rank's communication with
    :func:`repro.simmpi.sdc.payload_guard` and protect GEMM outputs
    with :meth:`protect_block`.
    """

    def __init__(self, policy: Optional[SDCPolicy] = None, monitor: Optional[SDCMonitor] = None):
        self.policy = policy if policy is not None else SDCPolicy()
        self.monitor = monitor if monitor is not None else SDCMonitor()

    def protect_block(
        self,
        comm,
        compute: Callable[[], np.ndarray],
        *,
        layer: int,
        step: int,
        gemm: str,
    ) -> np.ndarray:
        """Compute a GEMM block under checksum protection.

        ``compute`` must be a pure recomputable thunk returning a fresh
        float64 block.  Checksums are captured from the clean result;
        any injected :class:`~repro.simmpi.faults.BitFlipFault` for
        this (rank, layer, step, gemm) site then strikes the stored
        block, and verification applies the policy.  With no injector
        (or no matching flip) the clean block is returned unchanged —
        guarded and unguarded runs are bit-identical.
        """
        engine = comm._engine
        injector = engine.injector
        rank = comm.world_rank
        retries = 0
        while True:
            out = compute()
            row_sum, col_sum = block_checksums(out)
            if injector is not None:
                flip = injector.matmul_bitflip(rank, layer=layer, step=step, gemm=gemm)
                if flip is not None:
                    flip_bit(out, flip.element, flip.bit)
                    _record_fault(
                        comm,
                        "fault.bitflip",
                        ("matmul", gemm, layer, step, flip.element, flip.bit),
                    )
                    self.monitor.inc("injected")
            corruption = locate_corruption(out, row_sum, col_sum)
            if corruption is None:
                return out
            site = f"{gemm}[layer={layer}, step={step}]"
            _record_fault(comm, "fault.sdc_detected", ("matmul", gemm, layer, step))
            self.monitor.inc("detected")
            if self.policy.mode == "detect":
                raise SDCDetectedError(rank, site=site)
            if self.policy.mode == "correct" and corruption.correctable:
                correct_element(out, corruption)
                _record_fault(
                    comm,
                    "fault.sdc_corrected",
                    ("matmul", gemm, layer, step, corruption.row, corruption.col),
                )
                self.monitor.inc("corrected")
                return out
            # recompute (or correction impossible): redo the block.
            retries += 1
            if retries > self.policy.max_retries:
                _record_fault(comm, "fault.sdc_escalated", ("matmul", gemm, layer, step))
                raise SDCUnrecoverableError(
                    rank, site=site, retries=self.policy.max_retries
                )
            _record_fault(
                comm, "fault.sdc_recomputed", ("matmul", gemm, layer, step, retries)
            )
            self.monitor.inc("recomputed")


def make_guard(sdc, monitor: Optional[SDCMonitor] = None) -> Optional[SDCGuard]:
    """Coerce a trainer's ``sdc`` argument to a guard (or ``None``).

    Accepts ``None`` (guards off), a mode string (``"detect"`` /
    ``"correct"`` / ``"recompute"``), an :class:`~repro.simmpi.sdc.SDCPolicy`,
    or a ready-made :class:`SDCGuard` (shared across ranks).
    """
    if sdc is None or sdc is False:
        return None
    if isinstance(sdc, SDCGuard):
        return sdc
    return SDCGuard(as_policy(sdc), monitor=monitor)


def inject_unguarded(
    comm, out: np.ndarray, *, layer: Optional[int], step: Optional[int], gemm: str
) -> np.ndarray:
    """Apply a matmul-target flip to an *unprotected* GEMM block.

    This is the negative-control path: without a guard, an injected
    flip corrupts the stored block and nothing verifies it — the
    corruption escapes silently into training (only the fault log
    knows).  Returns ``out`` (mutated in place when a flip fires).
    """
    if layer is None or step is None:
        return out
    engine = getattr(comm, "_engine", None)
    injector = engine.injector if engine is not None else None
    if injector is None:
        return out
    flip = injector.matmul_bitflip(comm.world_rank, layer=layer, step=step, gemm=gemm)
    if flip is not None:
        flip_bit(out, flip.element, flip.bit)
        _record_fault(
            comm, "fault.bitflip", ("matmul", gemm, layer, step, flip.element, flip.bit)
        )
    return out
