"""Silent-data-corruption primitives shared by the transport and ABFT layers.

The simulator's SDC threat model: corruption strikes *stored* data — a
freshly computed GEMM output block sitting in memory, or a payload on
the wire — never the arithmetic units themselves.  That makes bitwise
integrity checks exact: a digest or checksum computed over the clean
bits detects any single flipped bit with zero false positives, with
none of the rounding ambiguity a floating-point checksum would carry.

This module provides the building blocks:

* :func:`flip_bit` / :func:`apply_payload_flip` — deterministic injection;
* :func:`payload_digest` — a 64-bit XOR fold over a float64 payload,
  escorting every guarded send (:class:`GuardedPayload`) at a fixed
  cost of :data:`SDC_DIGEST_BYTES` wire bytes;
* :class:`SDCPolicy` / :class:`SDCMonitor` — what to do on detection,
  and the ``sdc.*`` counters;
* :func:`payload_guard` / :func:`current_guard` — a per-rank
  (thread-local) activation scope so the communicator can wrap and
  verify payloads without threading a guard argument through every
  collective.

The heavier checksum math for GEMM blocks lives in
:mod:`repro.dist.abft`; nothing here imports the communicator, so both
layers can use these helpers without cycles.
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.simmpi.faults import BitFlipFault

__all__ = [
    "SDC_DIGEST_BYTES",
    "SDC_MODES",
    "SDCPolicy",
    "SDCMonitor",
    "GuardedPayload",
    "as_policy",
    "flippable_arrays",
    "payload_digest",
    "flip_bit",
    "apply_payload_flip",
    "wrap_payload",
    "payload_guard",
    "current_guard",
]

# One uint64 XOR fold escorts each guarded payload on the wire.
SDC_DIGEST_BYTES = 8

SDC_MODES = ("detect", "correct", "recompute")


@dataclasses.dataclass(frozen=True)
class SDCPolicy:
    """What the ABFT guards do when a checksum mismatch is found.

    * ``detect`` — flag (counters + fault log) and raise
      :class:`~repro.errors.SDCDetectedError`;
    * ``correct`` — fix a single corrupted element in place from the
      row/column checksums (GEMM blocks) or restore the clean payload
      by retransmission (wire corruption);
    * ``recompute`` — redo the afflicted block, at most ``max_retries``
      times, then escalate via
      :class:`~repro.errors.SDCUnrecoverableError` (which the elastic
      trainer absorbs as a rank crash: shrink, re-plan, restore).
    """

    mode: str = "correct"
    max_retries: int = 2

    def __post_init__(self) -> None:
        if self.mode not in SDC_MODES:
            raise ConfigurationError(
                f"SDC policy mode must be one of {SDC_MODES}, got {self.mode!r}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )


def as_policy(spec) -> Optional[SDCPolicy]:
    """Coerce ``None`` / mode string / :class:`SDCPolicy` to a policy."""
    if spec is None or isinstance(spec, SDCPolicy):
        return spec
    if isinstance(spec, str):
        return SDCPolicy(mode=spec)
    raise ConfigurationError(f"cannot interpret SDC policy spec {spec!r}")


class SDCMonitor:
    """``sdc.*`` counters, shared by all ranks of one run.

    Holds no lock: the engine runs exactly one rank tasklet at a time.
    """

    COUNTERS = ("injected", "detected", "corrected", "recomputed", "escaped")

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {name: 0 for name in self.COUNTERS}

    def inc(self, name: str, n: int = 1) -> None:
        self._counts[name] += n

    def snapshot(self) -> Dict[str, int]:
        return dict(self._counts)

    def __getitem__(self, name: str) -> int:
        return self._counts[name]


class GuardedPayload:
    """A payload escorted by its 64-bit XOR digest (plus 8 wire bytes).

    ``flip`` carries the injected fault *specification* (not applied
    yet): the receiver applies it on arrival, which models in-flight
    corruption while keeping the mailbox object clean for replay.
    """

    __slots__ = ("data", "digest", "flip")

    def __init__(self, data, digest: int, flip: Optional[BitFlipFault] = None):
        self.data = data
        self.digest = digest
        self.flip = flip

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GuardedPayload(digest=0x{self.digest:016x}, "
            f"flip={'yes' if self.flip else 'no'})"
        )


def flippable_arrays(payload) -> List[np.ndarray]:
    """The float64 arrays inside ``payload`` that SDC can strike.

    A bare float64 array, or a homogeneous list/tuple of them (the
    Bruck allgather sends block lists), qualifies; anything else —
    scalars, byte strings, mixed containers — is neither corruptible
    nor guarded.
    """
    if isinstance(payload, np.ndarray):
        if payload.dtype == np.float64 and payload.size:
            return [payload]
        return []
    if isinstance(payload, (list, tuple)) and payload:
        arrays = [
            a
            for a in payload
            if isinstance(a, np.ndarray) and a.dtype == np.float64 and a.size
        ]
        if len(arrays) == len(payload):
            return arrays
    return []


def payload_digest(payload) -> int:
    """64-bit XOR fold over the raw bits of a flippable payload.

    Exact: flipping any single bit anywhere in the payload flips the
    corresponding digest bit, so detection has zero false negatives and
    zero false positives on clean data.
    """
    acc = np.uint64(0)
    for a in flippable_arrays(payload):
        bits = np.ascontiguousarray(a).reshape(-1).view(np.uint64)
        acc = acc ^ np.bitwise_xor.reduce(bits)
    return int(acc)


def flip_bit(arr: np.ndarray, element: int, bit: int) -> None:
    """Flip bit ``bit`` of element ``element`` (row-major, modulo size)."""
    idx = np.unravel_index(element % arr.size, arr.shape)
    mask = np.uint64(1) << np.uint64(bit)
    clean = np.float64(arr[idx])
    arr[idx] = (clean.view(np.uint64) ^ mask).view(np.float64)


def apply_payload_flip(payload, flip: BitFlipFault) -> bool:
    """Apply a payload-target flip in place; ``False`` if nothing flippable.

    ``flip.element`` indexes the concatenated element space of all
    arrays in the payload.  XOR is an involution, so applying the same
    flip twice restores the clean bits exactly — the receiver uses this
    to model a retransmission without a second copy.
    """
    arrays = flippable_arrays(payload)
    if not arrays:
        return False
    index = flip.element % sum(a.size for a in arrays)
    for a in arrays:
        if index < a.size:
            flip_bit(a, index, flip.bit)
            return True
        index -= a.size
    return False  # pragma: no cover - unreachable


def wrap_payload(payload, flip: Optional[BitFlipFault]) -> Optional[GuardedPayload]:
    """Guard a payload for the wire, or ``None`` if it is not guardable.

    The digest is computed over the *clean* bits; an injected ``flip``
    rides along as a specification and is applied on arrival.
    """
    if not flippable_arrays(payload):
        return None
    return GuardedPayload(payload, payload_digest(payload), flip)


# -- per-rank guard activation ------------------------------------------------

_TLS = threading.local()


def current_guard():
    """The innermost active SDC guard of the calling rank, or ``None``."""
    stack = getattr(_TLS, "stack", None)
    return stack[-1] if stack else None


@contextlib.contextmanager
def payload_guard(guard):
    """Activate ``guard`` for the calling rank's sends and receives.

    Each simulated rank is one thread, so a thread-local stack scopes
    the guard to exactly the SPMD program section it wraps.  ``None``
    is accepted and is a no-op, which lets trainers write one
    ``with payload_guard(guard):`` for both guarded and unguarded runs.
    """
    if guard is None:
        yield
        return
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = _TLS.stack = []
    stack.append(guard)
    try:
        yield
    finally:
        stack.pop()
