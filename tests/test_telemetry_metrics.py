"""Tests for the metrics registry and its tracer-sink wiring."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.simmpi.engine import SimEngine
from repro.simmpi.tracing import TraceEvent, Tracer
from repro.telemetry.metrics import NULL_REGISTRY, MetricsRegistry
from repro.telemetry.spans import span


class TestCounter:
    def test_inc_and_value_per_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("bytes")
        c.inc(10, rank=0)
        c.inc(5, rank=0)
        c.inc(7, rank=1)
        assert c.value(rank=0) == 15
        assert c.value(rank=1) == 7
        assert c.total() == 22

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("c").inc(-1)

    def test_same_name_returns_same_metric(self):
        reg = MetricsRegistry()
        assert reg.counter("c") is reg.counter("c")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigurationError):
            reg.gauge("x")


class TestGauge:
    def test_set_and_set_max(self):
        g = MetricsRegistry().gauge("clock")
        g.set(1.0, rank=0)
        g.set_max(0.5, rank=0)
        assert g.value(rank=0) == 1.0
        g.set_max(2.0, rank=0)
        assert g.value(rank=0) == 2.0
        assert g.value(rank=9) is None


class TestHistogram:
    def test_observe_tracks_stats_and_buckets(self):
        h = MetricsRegistry().histogram("lat", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        stats = h.stats()
        assert stats["count"] == 3
        assert stats["sum"] == 55.5
        assert stats["min"] == 0.5 and stats["max"] == 50.0
        assert stats["buckets"] == [1, 1, 1]  # <=1, <=10, overflow

    def test_empty_buckets_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().histogram("h", buckets=())


class TestDisabled:
    def test_null_registry_is_noop(self):
        c = NULL_REGISTRY.counter("n")
        c.inc(5)
        assert c.value() == 0
        NULL_REGISTRY.observe_event(
            TraceEvent(0, "send", 1, 64, 0.0, 0.0)
        )
        assert NULL_REGISTRY.counter("comm.messages").total() == 0


def _chatter(comm):
    with span("work", comm=comm):
        return comm.allreduce(np.ones(8), algorithm="ring")


class TestEngineSink:
    def test_engine_feeds_registry(self):
        reg = MetricsRegistry()
        eng = SimEngine(2, metrics=reg)
        eng.run(_chatter)
        msgs = reg.counter("comm.messages")
        # Ring allreduce on 2 ranks: 2(p-1) = 2 sends per rank.
        assert msgs.value(rank=0, op="send") == 2
        assert msgs.value(rank=1, op="send") == 2
        assert reg.counter("comm.data_bytes").value(rank=0, op="send") > 0
        assert reg.counter("span.count").value(rank=0, span="work") == 1
        assert reg.counter("coll.calls").total() == 2  # one marker per rank
        assert reg.gauge("clock.seconds").value(rank=0) > 0

    def test_metrics_without_trace_stores_no_events(self):
        reg = MetricsRegistry()
        eng = SimEngine(2, metrics=reg)
        eng.run(_chatter)
        assert eng.tracer.events == ()  # sink-only: constant memory
        assert reg.counter("comm.messages").total() > 0

    def test_to_table_flattens_series(self):
        reg = MetricsRegistry()
        eng = SimEngine(2, metrics=reg)
        eng.run(_chatter)
        table = reg.to_table()
        assert len(table) > 0
        metrics = set(table.column("metric"))
        assert "comm.messages" in metrics and "clock.seconds" in metrics


class TestTracerScalability:
    def test_max_events_ring_buffer_counts_drops(self):
        tr = Tracer(enabled=True, max_events=2)
        for i in range(5):
            tr.record(TraceEvent(0, "send", 1, i, 0.0, 0.0))
        assert len(tr.events) == 2
        assert tr.dropped == 3
        assert [e.nbytes for e in tr.events] == [3, 4]  # oldest dropped
        tr.clear()
        assert tr.events == () and tr.dropped == 0

    def test_sink_sees_dropped_events(self):
        seen = []
        tr = Tracer(enabled=True, max_events=1, sink=seen.append)
        events = [TraceEvent(0, "send", 1, i, 0.0, 0.0) for i in range(4)]
        for ev in events:
            tr.record(ev)
        assert seen == events  # the sink streams everything, in order
        assert tr.events == (events[-1],)
        assert tr.dropped == 3

    def test_store_false_keeps_nothing(self):
        seen = []
        tr = Tracer(enabled=True, sink=seen.append, store=False)
        tr.record(TraceEvent(0, "send", 1, 8, 0.0, 0.0))
        assert tr.events == ()
        assert len(seen) == 1

    def test_engine_cap_passthrough(self):
        eng = SimEngine(2, trace=True, max_trace_events=4)
        eng.run(_chatter)
        assert len(eng.tracer.events) == 4
        assert eng.tracer.dropped > 0


class TestHistogramQuantiles:
    def test_empty_histogram_has_no_quantiles(self):
        h = MetricsRegistry().histogram("lat", buckets=(1.0, 10.0))
        assert h.quantile(0.5) is None
        assert h.quantile(0.0) is None and h.quantile(1.0) is None

    def test_single_sample_returns_that_sample(self):
        h = MetricsRegistry().histogram("lat", buckets=(1.0, 10.0))
        h.observe(3.5)
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert h.quantile(q) == 3.5

    def test_quantiles_interpolate_within_buckets(self):
        h = MetricsRegistry().histogram("lat", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 2.5, 3.5):
            h.observe(v)
        q50 = h.quantile(0.5)
        assert 1.0 <= q50 <= 2.5
        assert h.quantile(0.0) == 0.5  # clamped to observed min
        assert h.quantile(1.0) == 3.5  # clamped to observed max

    def test_out_of_range_q_rejected(self):
        h = MetricsRegistry().histogram("lat", buckets=(1.0,))
        h.observe(0.5)
        with pytest.raises(ConfigurationError):
            h.quantile(-0.1)
        with pytest.raises(ConfigurationError):
            h.quantile(1.5)

    def test_per_label_quantiles_are_independent(self):
        h = MetricsRegistry().histogram("lat", buckets=(1.0, 10.0))
        h.observe(0.5, rank=0)
        h.observe(50.0, rank=1)
        assert h.quantile(0.5, rank=0) == 0.5
        assert h.quantile(0.5, rank=1) == 50.0
        assert h.quantile(0.5, rank=9) is None


class TestRegistryMerge:
    def test_merge_disjoint_registries(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("sends").inc(2, rank=0)
        b.counter("recvs").inc(3, rank=1)
        a.merge(b)
        assert a.counter("sends").value(rank=0) == 2
        assert a.counter("recvs").value(rank=1) == 3
        assert b.counter("recvs").value(rank=1) == 3  # source untouched

    def test_merge_adds_counters_and_maxes_gauges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").inc(2, rank=0)
        b.counter("n").inc(5, rank=0)
        a.gauge("clock").set(1.0, rank=0)
        b.gauge("clock").set(3.0, rank=0)
        a.merge(b)
        assert a.counter("n").value(rank=0) == 7
        assert a.gauge("clock").value(rank=0) == 3.0

    def test_merge_combines_histogram_cells(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        ha = a.histogram("lat", buckets=(1.0, 10.0))
        hb = b.histogram("lat", buckets=(1.0, 10.0))
        ha.observe(0.5)
        hb.observe(5.0)
        hb.observe(50.0)
        a.merge(b)
        stats = ha.stats()
        assert stats["count"] == 3
        assert stats["min"] == 0.5 and stats["max"] == 50.0
        assert stats["buckets"] == [1, 1, 1]

    def test_merge_kind_mismatch_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x")
        b.gauge("x")
        with pytest.raises(ConfigurationError):
            a.merge(b)

    def test_merge_bucket_mismatch_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(1.0,))
        b.histogram("h", buckets=(2.0,))
        b.histogram("h", buckets=(2.0,)).observe(1.0)
        with pytest.raises(ConfigurationError):
            a.merge(b)

    def test_merged_histogram_deep_copied(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.histogram("lat", buckets=(1.0,)).observe(0.5)
        a.merge(b)
        b.histogram("lat", buckets=(1.0,)).observe(0.7)
        assert a.histogram("lat", buckets=(1.0,)).stats()["count"] == 1
        assert b.histogram("lat", buckets=(1.0,)).stats()["count"] == 2


def _nested_chatter(comm):
    with span("outer", comm=comm):
        comm.allreduce(np.ones(4), algorithm="ring")
        with span("inner", comm=comm):
            comm.allreduce(np.ones(4), algorithm="ring")
    with span("outer", comm=comm):
        pass
    return comm.rank


class TestStreamingSinkOrdering:
    def test_interleaved_spans_stream_consistently(self):
        """Per-rank event order through the sink matches the stored trace."""
        per_rank = {}

        class Recorder:
            def observe_event(self, event):
                per_rank.setdefault(event.rank, []).append(event)

        eng = SimEngine(2, trace=True, metrics=Recorder())
        eng.run(_nested_chatter)
        stored = eng.tracer.canonical()
        for rank, streamed in per_rank.items():
            kept = [e for e in stored if e.rank == rank]
            assert streamed == kept

    def test_span_counts_survive_interleaving(self):
        reg = MetricsRegistry()
        eng = SimEngine(2, metrics=reg)
        eng.run(_nested_chatter)
        # Each rank opens "outer" twice and "inner" once; spans are
        # labeled by their leaf name.
        assert reg.counter("span.count").value(rank=0, span="outer") == 2
        assert reg.counter("span.count").value(rank=0, span="inner") == 1
        assert reg.counter("span.count").value(rank=1, span="outer") == 2

    def test_heartbeats_feed_hb_metrics_not_coll_calls(self):
        from repro.simmpi.tracing import TraceEvent as TE

        reg = MetricsRegistry()
        before = reg.counter("coll.calls").total()
        reg.observe_event(TE(
            rank=1, op="hb", peer=-1, nbytes=0, t_start=1e-6, t_end=1e-6,
            tag=(("loss", 0.25), ("phase", "train"), ("step", 4)),
        ))
        assert reg.counter("hb.count").value(rank=1) == 1
        assert reg.gauge("hb.step").value(rank=1) == 4
        assert reg.gauge("hb.loss").value(rank=1) == 0.25
        assert reg.counter("coll.calls").total() == before
