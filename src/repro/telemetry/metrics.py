"""A small metrics registry: counters, gauges and histograms.

The registry is the aggregation side of telemetry: where the tracer
records *every* event, metrics keep cheap running aggregates — bytes
sent, message counts, fault/retry totals, virtual seconds per span kind
— that stay O(label cardinality) no matter how long a run is.  Wired as
the tracer's streaming sink (``SimEngine(..., metrics=registry)``) it
sees every :class:`~repro.simmpi.tracing.TraceEvent`, including events
dropped from a capped event store.

The sink buffers events; :meth:`MetricsRegistry.flush` folds them in
bulk once :data:`FOLD_CHUNK` are buffered (bounding a sink-only run's
memory), after every ``SimEngine.run`` (failed runs too) and before any
read or update.  Series fold in event order and metrics are created in
first-seen order, so every value, bucket and ``to_rows()`` order is
bit-identical to updating per event, wherever the chunks break.

Disabled registries (``MetricsRegistry(enabled=False)``, or the shared
:data:`NULL_REGISTRY`) turn every mutation into an immediate no-op so
instrumented code never needs to guard its calls.

All metrics support free-form labels::

    reg = MetricsRegistry()
    reg.counter("bytes_sent").inc(4096, rank=0, op="send")
    reg.histogram("span_seconds").observe(3.2e-4, span="fwd")
    reg.to_table()          # ResultTable for repro.report.export
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import Counter as _Tally
from functools import reduce
from operator import add
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.results import ResultTable
from repro.errors import ConfigurationError
from repro.telemetry.spans import base_name

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "FOLD_CHUNK",
]

#: Trace events the sink buffers before folding them into the metrics.
FOLD_CHUNK = 4096

LabelKey = Tuple[Tuple[str, Any], ...]
#: Values to fold per label set, each list in arrival order.
Groups = Dict[LabelKey, List[Any]]


def _key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted(labels.items()))


class _Metric:
    """Shared plumbing: a name, a lock, and a labelled-series mapping.

    ``flush`` is the owning registry's fold of buffered trace events;
    every read and update runs it first.  Each kind updates only through
    ``_fold(groups)``, which folds each label set's values in order; a
    single update is a one-value group.
    """

    kind = "metric"

    def __init__(
        self, name: str, description: str, enabled: bool, lock: threading.Lock,
        flush: Callable[[], None],
    ) -> None:
        self.name = name
        self.description = description
        self._enabled = enabled
        self._lock = lock
        self._flush = flush
        self._series: Dict[LabelKey, Any] = {}

    def series(self) -> Dict[LabelKey, Any]:
        """Snapshot of ``{labels: value}`` for this metric."""
        self._flush()
        with self._lock:
            return dict(self._series)


class Counter(_Metric):
    """A monotonically increasing sum per label set."""

    kind = "counter"

    def inc(self, value: float = 1, **labels: Any) -> None:
        if not self._enabled:
            return
        if value < 0:
            raise ConfigurationError(f"counter {self.name!r} cannot decrease by {value}")
        self._flush()
        self._fold({_key(labels): [value]})

    def _fold(self, groups: Groups) -> None:
        with self._lock:
            for key, values in groups.items():
                self._series[key] = reduce(add, values, self._series.get(key, 0))

    def value(self, **labels: Any) -> float:
        self._flush()
        with self._lock:
            return self._series.get(_key(labels), 0)

    def total(self) -> float:
        self._flush()
        with self._lock:
            return sum(self._series.values())


class Gauge(_Metric):
    """A last-write-wins value per label set, with a ``max`` helper."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        if not self._enabled:
            return
        self._flush()
        self._fold({_key(labels): [value]}, keep_max=False)

    def set_max(self, value: float, **labels: Any) -> None:
        """Keep the running maximum (used for per-rank clocks)."""
        if not self._enabled:
            return
        self._flush()
        self._fold({_key(labels): [value]})

    def _fold(self, groups: Groups, keep_max: bool = True) -> None:
        """The last value, or the running maximum: a value replaces the
        current one only if it is larger."""
        with self._lock:
            for key, values in groups.items():
                self._series[key] = (
                    reduce(max, values, self._series.get(key, values[0]))
                    if keep_max else values[-1]
                )

    def value(self, **labels: Any) -> Optional[float]:
        self._flush()
        with self._lock:
            return self._series.get(_key(labels))


DEFAULT_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)


class Histogram(_Metric):
    """Fixed-bucket histogram per label set (plus count/sum/min/max)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        description: str,
        enabled: bool,
        lock: threading.Lock,
        flush: Callable[[], None],
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, description, enabled, lock, flush)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ConfigurationError("histogram needs at least one bucket bound")

    def observe(self, value: float, **labels: Any) -> None:
        if not self._enabled:
            return
        self._flush()
        self._fold({_key(labels): [value]})

    def _fold(self, groups: Groups) -> None:
        """A value fills the first bucket whose bound it does not exceed,
        else (NaN too) the overflow bucket."""
        bounds = self.buckets
        with self._lock:
            for key, values in groups.items():
                cell = self._series.setdefault(key, {
                    "count": 0, "sum": 0.0, "min": values[0], "max": values[0],
                    "buckets": [0] * (len(bounds) + 1),
                })
                cell["count"] += len(values)
                cell["sum"] = reduce(add, values, cell["sum"])
                cell["min"] = reduce(min, values, cell["min"])
                cell["max"] = reduce(max, values, cell["max"])
                for i, filled in _Tally(
                    bisect_left(bounds, v) if v == v else len(bounds) for v in values
                ).items():
                    cell["buckets"][i] += filled

    def stats(self, **labels: Any) -> Optional[Dict[str, Any]]:
        self._flush()
        with self._lock:
            cell = self._series.get(_key(labels))
            return None if cell is None else dict(cell)

    def quantile(self, q: float, **labels: Any) -> Optional[float]:
        """Bucket-interpolated ``q``-quantile estimate for one label set.

        Returns ``None`` when the label set has no observations.  The
        estimate walks the cumulative bucket counts to the bucket that
        contains the ``q``-th sample and interpolates linearly inside
        it; the open overflow bucket and the bucket containing the
        minimum are clamped to the observed ``max``/``min``, so a
        single-sample histogram returns that sample exactly for any
        ``q``.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        self._flush()
        with self._lock:
            cell = self._series.get(_key(labels))
            if cell is None or cell["count"] == 0:
                return None
            target = q * cell["count"]
            cum = 0
            for i, filled in enumerate(cell["buckets"]):
                cum += filled
                if cum >= target and filled:
                    lo = self.buckets[i - 1] if i > 0 else cell["min"]
                    hi = self.buckets[i] if i < len(self.buckets) else cell["max"]
                    lo = max(lo, cell["min"])
                    hi = min(hi, cell["max"])
                    if hi <= lo:
                        return lo
                    frac = (target - (cum - filled)) / filled
                    return lo + frac * (hi - lo)
            return cell["max"]


class MetricsRegistry:
    """Creates and owns metrics; doubles as a tracer event sink.

    Parameters
    ----------
    enabled:
        With ``False`` every metric mutation (and :meth:`observe_event`)
        returns immediately — the cheap no-op mode the instrumentation
        relies on.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}
        self._pending: List[Any] = []  # trace events not yet folded

    # -- metric construction (idempotent by name) ---------------------------

    def _get(self, cls, name: str, description: str, **kwargs) -> Any:
        if name not in self._metrics:
            self.flush()  # buffered events create their metrics first
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, description, self.enabled, self._lock, self.flush, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise ConfigurationError(
                    f"metric {name!r} already registered as a {metric.kind}"
                )
            return metric

    def counter(self, name: str, description: str = "") -> Counter:
        return self._get(Counter, name, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._get(Gauge, name, description)

    def histogram(
        self, name: str, description: str = "", buckets: Iterable[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get(Histogram, name, description, buckets=buckets)

    def metrics(self) -> Tuple[_Metric, ...]:
        self.flush()
        with self._lock:
            return tuple(self._metrics.values())

    # -- the standard trace-event sink --------------------------------------

    def observe_event(self, event: Any) -> None:
        """Buffer one trace event for the standard communication metrics.

        Accepts any :class:`~repro.simmpi.tracing.TraceEvent`; suitable
        for ``Tracer(sink=registry.observe_event)`` (which is what
        ``SimEngine(metrics=registry)`` wires up).  The engine runs one
        rank at a time, so the append needs no lock.
        """
        if not self.enabled:
            return
        self._pending.append(event)
        if len(self._pending) >= FOLD_CHUNK:
            self.flush()

    def flush(self) -> None:
        """Fold the buffered trace events into the standard metrics.

        ``send``/``recv`` feed ``comm.*`` per ``(op, rank)`` and a
        ``recv`` its latency into ``comm.recv_seconds``; a ``span`` feeds
        ``span.*`` per ``(rank, leaf span name)``, ``fault.*`` counts in
        ``faults.events`` and ``hb`` in ``hb.count`` (plus the ``hb.step``
        maximum and latest ``hb.loss``); any other op is a collective
        entry in ``coll.calls``.  Every event raises its rank's
        ``clock.seconds`` to its ``t_end``.
        """
        with self._lock:
            events, self._pending = self._pending, []
        if not events:
            return
        ops = dict.fromkeys(e.op for e in events)
        faulty = {op for op in ops if op.startswith("fault.")}
        collective = ops.keys() - faulty - {"send", "recv", "span", "hb"}
        plan = []

        def fold(name, items, raw, labels, values=None, **how):
            """Plan ``name``'s update by ``items``: their ``values``
            (counts of 1 without them) keyed by ``raw`` label values."""
            if items:
                # Create metrics as per-event updates did: by first event,
                # then in the order one event updates them.
                first = next(i for i, e in enumerate(events) if e is items[0])
                at = (first, _ORDER[name])
                plan.append((at, name, _groups(raw, labels, values), how))

        p2p = [e for e in events if e.op == "send" or e.op == "recv"]
        raw = [(e.op, e.rank) for e in p2p]
        fold("comm.messages", p2p, raw, ("op", "rank"))
        fold("comm.bytes", p2p, raw, ("op", "rank"), [e.nbytes for e in p2p])
        fold("comm.data_bytes", p2p, raw, ("op", "rank"), [e.data_bytes for e in p2p])
        recvs = [e for e in p2p if e.op == "recv"] if "recv" in ops else []
        fold("comm.recv_seconds", recvs, [e.rank for e in recvs], ("rank",),
             [e.t_end - e.t_start for e in recvs])
        spans = [e for e in events if e.op == "span"] if "span" in ops else []
        raw = [(e.rank, base_name(e.span[-1]) if e.span else "?") for e in spans]
        fold("span.count", spans, raw, ("rank", "span"))
        fold("span.seconds", spans, raw, ("rank", "span"), [e.t_end - e.t_start for e in spans])
        faults = [e for e in events if e.op in faulty] if faulty else []
        fold("faults.events", faults, [(e.op[len("fault."):], e.rank) for e in faults],
             ("kind", "rank"))
        beats = [e for e in events if e.op == "hb"] if "hb" in ops else []
        fold("hb.count", beats, [e.rank for e in beats], ("rank",))
        for field in ("step", "loss") if beats else ():
            got = [(e, v) for e in beats for v in [dict(e.tag).get(field)] if v is not None]
            fold("hb." + field, [e for e, _ in got], [e.rank for e, _ in got], ("rank",),
                 [v for _, v in got], keep_max=field == "step")
        colls = [e for e in events if e.op in collective] if collective else []
        fold("coll.calls", colls, [(e.op, e.rank) for e in colls], ("op", "rank"))
        fold("clock.seconds", events, [e.rank for e in events], ("rank",),
             [e.t_end for e in events])
        for _, name, groups, how in sorted(plan, key=lambda step: step[0]):
            cls, description = _STANDARD[name]
            self._get(cls, name, description)._fold(groups, **how)

    # -- combination ---------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other``'s series into this registry, in place.

        Counters add, gauges keep the maximum (matching their
        ``set_max`` use for per-rank clocks), histogram cells combine
        count/sum/min/max and add bucket fills.  Metrics present in only
        one registry are copied over unchanged.  Raises
        :class:`~repro.errors.ConfigurationError` on a kind mismatch or
        on histograms with different bucket bounds.
        """
        if not self.enabled:
            return
        self.flush()
        for theirs in other.metrics():
            if isinstance(theirs, Histogram):
                mine = self.histogram(
                    theirs.name, theirs.description, buckets=theirs.buckets
                )
                if mine.buckets != theirs.buckets:
                    raise ConfigurationError(
                        f"histogram {theirs.name!r} bucket bounds differ: "
                        f"{mine.buckets} vs {theirs.buckets}"
                    )
            else:
                mine = self._get(type(theirs), theirs.name, theirs.description)
                mine._fold({key: [value] for key, value in theirs.series().items()})
                continue
            for key, value in theirs.series().items():
                with self._lock:
                    cur = mine._series.get(key)
                    if cur is None:
                        mine._series[key] = dict(value, buckets=list(value["buckets"]))
                    else:
                        cur["count"] += value["count"]
                        cur["sum"] += value["sum"]
                        cur["min"] = min(cur["min"], value["min"])
                        cur["max"] = max(cur["max"], value["max"])
                        for i, filled in enumerate(value["buckets"]):
                            cur["buckets"][i] += filled

    # -- export --------------------------------------------------------------

    def to_rows(self) -> List[Dict[str, Any]]:
        """Flatten every labelled series into export-friendly dicts."""
        rows: List[Dict[str, Any]] = []
        for metric in self.metrics():
            for key, value in sorted(metric.series().items(), key=lambda kv: str(kv[0])):
                row: Dict[str, Any] = {
                    "metric": metric.name,
                    "type": metric.kind,
                    "labels": ",".join(f"{k}={v}" for k, v in key),
                }
                if metric.kind == "histogram":
                    row.update(
                        count=value["count"],
                        value=value["sum"],
                        min=value["min"],
                        max=value["max"],
                    )
                else:
                    row["value"] = value
                rows.append(row)
        return rows

    def to_table(self, title: str = "metrics") -> ResultTable:
        table = ResultTable(title, columns=["metric", "type", "labels", "value"])
        table.extend(self.to_rows())
        return table


#: The trace sink's metrics, name -> (class, description), in the order
#: one event updates them.
_STANDARD = {
    "comm.messages": (Counter, "p2p messages"),
    "comm.bytes": (Counter, "p2p wire bytes"),
    "comm.data_bytes": (Counter, "p2p payload data bytes"),
    "comm.recv_seconds": (Histogram, "virtual receive latency"),
    "span.count": (Counter, "spans closed"),
    "span.seconds": (Counter, "virtual seconds inside spans"),
    "faults.events": (Counter, "fault-subsystem events"),
    "hb.count": (Counter, "heartbeats emitted"),
    "hb.step": (Gauge, "latest heartbeat step"),
    "hb.loss": (Gauge, "latest heartbeat loss"),
    "coll.calls": (Counter, "collective entries"),
    "clock.seconds": (Gauge, "per-rank virtual clock"),
}
_ORDER = {name: i for i, name in enumerate(_STANDARD)}


def _groups(raw: List[Any], labels: Tuple[str, ...], values: Optional[List[Any]]) -> Groups:
    """``values`` (without them, counts of 1) per label set, in order;
    ``raw`` holds each value's label values, named ``labels``."""
    if values is None:
        grouped = {key: [count] for key, count in _Tally(raw).items()}
    else:
        grouped = {key: [] for key in dict.fromkeys(raw)}
        for key, value in zip(raw, values):
            grouped[key].append(value)
    return {
        tuple(zip(labels, key)) if len(labels) > 1 else ((labels[0], key),): group
        for key, group in grouped.items()
    }


#: A shared disabled registry: every mutation is a no-op.
NULL_REGISTRY = MetricsRegistry(enabled=False)
