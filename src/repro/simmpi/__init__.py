"""Simulated MPI: an in-process SPMD runtime with a virtual network clock.

The paper's algorithms (1.5D layer products, halo exchanges, ring
all-reduce, Bruck all-gather) are *executable* here, not just costed:
rank programs run as tasklets of a single-threaded discrete-event
scheduler, exchanging real NumPy buffers, while a
latency-bandwidth ("postal") timing model advances a per-rank virtual
clock — a message of ``n`` bytes posted at sender time ``t`` becomes
available at ``t + alpha + beta * n``, and a receive advances the
receiver's clock to the maximum of its own time and the arrival time.
Collective *timings* therefore emerge from the actual communication
rounds and are cross-checked against the closed forms in
:mod:`repro.collectives.cost` by the test suite, while collective
*results* are verified bit-for-bit against their serial equivalents.

Quick example::

    from repro.simmpi import SimEngine
    import numpy as np

    def program(comm):
        x = np.full(4, float(comm.rank))
        total = comm.allreduce(x)          # ring all-reduce
        return total.sum()

    engine = SimEngine(size=4)
    result = engine.run(program)
    result.values      # one value per rank
    result.time        # simulated seconds (max over rank clocks)
"""

from repro.simmpi.engine import SimEngine, SimResult
from repro.simmpi.communicator import Comm, Request
from repro.simmpi.faults import (
    Crash,
    FaultInjector,
    FaultPlan,
    LinkFault,
    MessageDrop,
    Straggler,
    TransientFault,
)
from repro.simmpi.network import PostalNetwork
from repro.simmpi.tracing import TraceEvent, Tracer

__all__ = [
    "SimEngine",
    "SimResult",
    "Comm",
    "Request",
    "PostalNetwork",
    "TraceEvent",
    "Tracer",
    "FaultPlan",
    "FaultInjector",
    "Crash",
    "TransientFault",
    "MessageDrop",
    "LinkFault",
    "Straggler",
]
