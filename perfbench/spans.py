"""Outside-in layer spans for the perfbench benchmark.

The benchmark times each ``repro`` layer without changing a source
file: :meth:`Spans.install` replaces the layer's public entry points
(module functions and class methods, patched where their callers look
them up) with timing wrappers, and :meth:`Spans.uninstall` puts the
originals back.

Attribution is exact by construction.  Under the event backend exactly
one rank tasklet runs at a time, so host time is a single timeline cut
at every wrapper boundary.  Each slice between two consecutive
boundaries is charged to one layer:

* a slice that starts and ends on the same thread goes to the innermost
  open span of that thread ("self" time: span time minus child spans);
* a slice that starts on one thread and ends on another is a scheduler
  hand-off and goes to ``events``;
* a thread's time outside every wrapped layer goes to ``unattributed``.

So the self times of all layers, ``unattributed`` included, sum to the
traced wall time exactly, in integer nanoseconds.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.dist import abft, conv_domain, elastic, integrated, train
from repro.observe import health
from repro.simmpi import collops, communicator, engine, events, faults, network, tracing
from repro.simmpi.sdc import SDC_DIGEST_BYTES
from repro.telemetry import audit, metrics

BASE = "unattributed"
EVENTS = "events"


class Accountant:
    """Self-time and count totals of one traced interval."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self._tls = threading.local()
        self._cur: List[str] = self._stack()
        self._last = 0
        self._start = 0
        self.wall_ns = 0

    def _stack(self) -> List[str]:
        try:
            return self._tls.stack
        except AttributeError:
            stack = self._tls.stack = [BASE]
            return stack

    def begin(self) -> None:
        """Zero the totals and open the interval on the calling thread."""
        self.self_ns.clear()
        self.counts.clear()
        self._cur = self._stack()
        del self._cur[1:]
        self._start = self._last = perf_counter_ns()

    def end(self) -> int:
        """Close the interval; returns its wall time in nanoseconds."""
        t = perf_counter_ns()
        stack = self._stack()
        top = self._cur[-1] if self._cur is stack else EVENTS
        self.self_ns[top] += t - self._last
        self._cur = stack
        self._last = t
        self.wall_ns = t - self._start
        return self.wall_ns

    def wrap(
        self,
        fn: Callable,
        layer: str,
        count: Optional[str] = None,
        outer: bool = False,
        tally: Optional[Tuple[str, Callable[[Any, Tuple, str], int]]] = None,
    ) -> Callable:
        """``fn`` timed as a span of ``layer``.

        ``count`` names a counter bumped per call (only per call from
        outside the layer with ``outer``).  ``tally = (counter, amount)``
        adds ``amount(result, args, parent_layer)`` after each call that
        returned.
        """
        acc = self
        tls = self._tls
        self_ns = self.self_ns
        counts = self.counts

        def wrapper(*args, **kwargs):
            t = perf_counter_ns()
            try:
                stack = tls.stack
            except AttributeError:
                stack = tls.stack = [BASE]
            cur = acc._cur
            self_ns[cur[-1] if cur is stack else EVENTS] += t - acc._last
            parent = stack[-1]
            stack.append(layer)
            acc._cur = stack
            if count is not None and not (outer and parent == layer):
                counts[count] += 1
            acc._last = t
            try:
                result = fn(*args, **kwargs)
            finally:
                t = perf_counter_ns()
                cur = acc._cur
                self_ns[stack[-1] if cur is stack else EVENTS] += t - acc._last
                stack.pop()
                acc._cur = stack
                acc._last = t
            if tally is not None:
                counts[tally[0]] += tally[1](result, args, parent)
            return result

        return wrapper

    def wrap_engine_run(self, run: Callable) -> Callable:
        """``SimEngine.run`` as an ``events`` span whose rank program opens
        and closes with a boundary, so a tasklet's first and last slices
        are its own rather than the scheduler's."""
        acc = self
        self_ns = self.self_ns

        def program_wrapper(fn):
            def program(comm, *args, **kwargs):
                t = perf_counter_ns()
                stack = acc._tls.stack = [BASE]
                self_ns[EVENTS] += t - acc._last
                acc._cur = stack
                acc._last = t
                try:
                    return fn(comm, *args, **kwargs)
                finally:
                    t = perf_counter_ns()
                    cur = acc._cur
                    self_ns[cur[-1] if cur is stack else EVENTS] += t - acc._last
                    acc._cur = stack
                    acc._last = t

            return program

        timed_run = self.wrap(run, EVENTS)

        def engine_run(engine, fn, *args, **kwargs):
            return timed_run(engine, program_wrapper(fn), *args, **kwargs)

        return engine_run


def _sent_bytes(result, args, parent) -> int:
    return int(result) if parent == "comm.send" else 0


def _guard_bytes(result, args, parent) -> int:
    return SDC_DIGEST_BYTES if result is not None and parent == "comm.send" else 0


def span_table(acc: Accountant) -> List[Tuple[Any, str, Callable]]:
    """``(owner, attribute, wrapper)`` for every wrapped entry point."""
    rows: List[Tuple[Any, str, Callable]] = []

    def add(owner, names, layer, **kw):
        for name in names.split():
            rows.append((owner, name, acc.wrap(getattr(owner, name), layer, **kw)))

    rows.append((engine.SimEngine, "run", acc.wrap_engine_run(engine.SimEngine.run)))
    add(engine.SimEngine, "__init__", EVENTS)
    add(events.EventCore, "run", EVENTS,
        tally=("events.switches", lambda r, a, p: a[0].switches))
    add(events.EventMailbox, "post take", "events.mailbox")
    add(communicator.Comm, "send", "comm.send", count="comm.msgs")
    add(communicator.Comm, "recv", "comm.recv")
    add(communicator.Request, "wait", "comm.recv")
    # The sizing call is the one place the send path exposes its size.
    add(communicator, "payload_bytes", "network.sizing", count="network.sizing.calls",
        tally=("comm.payload_bytes", _sent_bytes))
    add(communicator, "payload_data_bytes", "network.sizing", count="network.sizing.calls")
    add(network.PostalNetwork, "arrival_time transfer_time link_machine", "network.postal")
    add(collops,
        "allgather_blocks allreduce reduce_scatter_ring bcast_binomial gather_naive "
        "scatter_blocks reduce_to_root barrier_dissemination halo_exchange_1d",
        "collops", count="collops.calls", outer=True)
    add(tracing.Tracer, "record", "tracing",
        tally=("tracing.records", lambda r, a, p: int(a[0].enabled)))
    add(metrics.MetricsRegistry, "observe_event", "sink")
    add(health.HealthMonitor, "observe_event", "sink")
    add(train, "mlp_run_record", "analysis")
    add(audit, "audit_events", "analysis")
    for trainer in (train, integrated, elastic):
        add(trainer, "forward_15d backward_dx_15d backward_dw_15d", "gemm", count="gemm.calls")
    add(conv_domain.DomainConv2D, "forward backward", "conv")
    add(conv_domain, "im2col col2im", "conv.im2col")
    add(integrated, "maxpool2d_forward maxpool2d_backward", "pool")
    add(abft, "block_checksums", "abft", count="abft.blocks")
    add(abft, "locate_corruption correct_element", "abft")
    add(communicator, "wrap_payload", "sdc.wire", tally=("comm.guard_bytes", _guard_bytes))
    add(communicator, "payload_digest apply_payload_flip", "sdc.wire")
    add(faults.FaultInjector,
        "send_outcome check_crash check_cascade matmul_bitflip link_machine "
        "has_straggler compute_factor note_straggler_slack",
        "faults")
    add(elastic, "encode_chunk", "erasure",
        tally=("erasure.bytes", lambda r, a, p: int(r.nbytes)))
    add(elastic, "decode_stripe pack_block_state unpack_block_state", "erasure")
    add(communicator.Comm, "shrink", "elastic")
    add(elastic, "replan_grid", "elastic")
    return rows


class Spans:
    """Installs and removes the wrappers of :func:`span_table`."""

    def __init__(self) -> None:
        self.acc = Accountant()
        self._saved: List[Tuple[Any, str, Any]] = []

    def install(self) -> None:
        if self._saved:
            return
        for owner, name, wrapper in span_table(self.acc):
            # Keep the exact attribute (function, not bound method) so
            # uninstall restores the class or module byte for byte.
            self._saved.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Spans":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


#: Per-layer metric name -> (unit, how it is derived).  ``per_step``
#: divides by simulated steps, ``per_msg`` by messages sent (in µs for
#: times), ``per_record`` by trace records.
LAYER_METRICS = {
    "events.switches": "count",
    "events.self_s": "s",
    "events.mailbox.us_per_msg": "us",
    "comm.msgs": "count",
    "comm.bytes": "B",
    "comm.send.us_per_msg": "us",
    "comm.recv.us_per_msg": "us",
    "network.sizing.calls_per_msg": "calls/msg",
    "network.sizing.us_per_msg": "us",
    "network.postal.us_per_msg": "us",
    "collops.calls": "count",
    "collops.self_s": "s",
    "tracing.records": "count",
    "tracing.us_per_record": "us",
    "sink.self_s": "s",
    "analysis.record_s": "s",
    "gemm.calls": "count",
    "gemm.self_s": "s",
    "conv.self_s": "s",
    "conv.im2col.self_s": "s",
    "pool.self_s": "s",
    "abft.blocks": "count",
    "abft.self_s": "s",
    "sdc.wire.self_s": "s",
    "faults.self_s": "s",
    "erasure.bytes": "B",
    "erasure.self_s": "s",
    "elastic.shrink_s": "s",
    "unattributed.share": "ratio",
    "spans.overhead": "ratio",
}

#: Layers whose self time is reported per step as ``<layer>.self_s``.
_SELF_PER_STEP = {
    "events.self_s": EVENTS,
    "collops.self_s": "collops",
    "sink.self_s": "sink",
    "analysis.record_s": "analysis",
    "gemm.self_s": "gemm",
    "conv.self_s": "conv",
    "conv.im2col.self_s": "conv.im2col",
    "pool.self_s": "pool",
    "abft.self_s": "abft",
    "sdc.wire.self_s": "sdc.wire",
    "faults.self_s": "faults",
    "erasure.self_s": "erasure",
    "elastic.shrink_s": "elastic",
}
_SELF_PER_MSG = {
    "events.mailbox.us_per_msg": "events.mailbox",
    "comm.send.us_per_msg": "comm.send",
    "comm.recv.us_per_msg": "comm.recv",
    "network.sizing.us_per_msg": "network.sizing",
    "network.postal.us_per_msg": "network.postal",
}
_COUNT_PER_STEP = {
    "events.switches": "events.switches",
    "comm.msgs": "comm.msgs",
    "collops.calls": "collops.calls",
    "tracing.records": "tracing.records",
    "gemm.calls": "gemm.calls",
    "abft.blocks": "abft.blocks",
    "erasure.bytes": "erasure.bytes",
}


def layer_metrics(acc: Accountant, steps: int) -> Dict[str, float]:
    """Every per-layer metric but ``spans.overhead`` for one traced op."""
    self_ns, counts, wall_ns = acc.self_ns, acc.counts, acc.wall_ns
    msgs = counts.get("comm.msgs", 0)
    records = counts.get("tracing.records", 0)
    out: Dict[str, float] = {}
    for name, layer in _SELF_PER_STEP.items():
        out[name] = self_ns.get(layer, 0) / 1e9 / steps
    for name, layer in _SELF_PER_MSG.items():
        out[name] = self_ns.get(layer, 0) / 1e3 / msgs if msgs else 0.0
    for name, counter in _COUNT_PER_STEP.items():
        out[name] = counts.get(counter, 0) / steps
    out["comm.bytes"] = (
        counts.get("comm.payload_bytes", 0) + counts.get("comm.guard_bytes", 0)
    ) / steps
    out["network.sizing.calls_per_msg"] = (
        counts.get("network.sizing.calls", 0) / msgs if msgs else 0.0
    )
    out["tracing.us_per_record"] = (
        self_ns.get("tracing", 0) / 1e3 / records if records else 0.0
    )
    out["unattributed.share"] = self_ns.get(BASE, 0) / wall_ns if wall_ns else 0.0
    return out
