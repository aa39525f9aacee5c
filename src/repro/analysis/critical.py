"""Cross-rank dependency DAG and critical-path extraction.

The simulator already *timed* every message; this module explains the
resulting makespan.  It rebuilds the cross-rank dependency DAG of a
trace — program-order edges between consecutive ``send``/``recv``
events of one rank, plus a matched edge from every ``send`` to the
``recv`` that consumed it — in one FIFO-matching pass into flat
per-node arrays, then computes slack in one reverse sweep over them:

* an event's **slack** is how far its completion could slip without
  increasing the run's makespan;
* the **critical path** is the zero-slack chain from the start of the
  run to the clock that defines the makespan — the sequence of
  computations, sends and waits that bounds step time;
* every critical event is **attributed** to its telemetry span, layer
  and cost-model category (the Eq. 3/4/8 term it belongs to, via
  :data:`~repro.telemetry.audit.PHASE_CATEGORY`), so the path reads as
  "these collectives on that rank are why the step takes this long".

Matching mirrors the mailbox: sends and receives pair FIFO per
``(src, dst, tag)`` (injected drops are excluded — their messages never
arrived).  Program-order edges are *rigid* — the gap between two
consecutive events of one rank is local compute, which shifts with its
predecessor — while a send→recv edge absorbs slack whenever the message
arrived before the receiver asked for it.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.results import ResultTable
from repro.errors import ConfigurationError
from repro.report.tables import format_seconds
from repro.simmpi.tracing import TraceEvent
from repro.telemetry.audit import PHASE_CATEGORY
from repro.telemetry.spans import base_name, parse_label

__all__ = [
    "DependencyGraph",
    "CriticalEvent",
    "CriticalPathReport",
    "build_dependency_graph",
    "critical_path",
    "attribute_event",
]

#: Float tolerance when deciding that a slack or gap is zero.
_EPS = 1e-12


def attribute_event(event: TraceEvent) -> Tuple[str, int, str]:
    """``(phase, layer, category)`` attribution of one event.

    The phase is the innermost enclosing trainer-phase span
    (``fwd``/``bwd_dx``/``bwd_dw``), the layer its ``layer`` attribute,
    and the category the Eq. 3/4/8 term of
    :data:`~repro.telemetry.audit.PHASE_CATEGORY`.  Events outside any
    known phase attribute to ``("other", -1, "other")``.
    """
    for label in reversed(event.span):
        name = base_name(label)
        if name in PHASE_CATEGORY:
            layer = parse_label(label)[1].get("layer", -1)
            return name, int(layer), PHASE_CATEGORY[name]
    if event.span:
        return base_name(event.span[-1]), -1, "other"
    return "other", -1, "other"


@dataclasses.dataclass(frozen=True)
class DependencyGraph:
    """The event-level dependency DAG of one trace, as flat per-node arrays.

    ``nodes`` are the p2p events in input order.  Node ``u``'s edges are
    its program successor ``successor[u]`` (the next event of its rank)
    and, for a send, the receive ``matched[u]`` that consumed it, which
    absorbs ``gap[u]`` of slack (``-1`` marks a missing edge).  Every
    edge points to a later node, so a reverse sweep over the nodes visits
    each one after all of its successors.
    """

    nodes: Tuple[TraceEvent, ...]
    successor: Tuple[int, ...]
    matched: Tuple[int, ...]
    arrival: Tuple[float, ...]
    gap: Tuple[float, ...]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        n = self.n_nodes
        return 2 * n - self.successor.count(-1) - self.matched.count(-1)

    @property
    def program_edges(self) -> Tuple[Tuple[int, int], ...]:
        """``(u, v)`` pairs of consecutive events of one rank, by ``v``."""
        return _edges(self.successor)

    @property
    def message_edges(self) -> Tuple[Tuple[int, int], ...]:
        """``(send, recv)`` FIFO-matched pairs, by the receive."""
        return _edges(self.matched)

    @property
    def arrivals(self) -> Dict[Tuple[int, int], float]:
        """Virtual arrival time of each matched message, by message edge.

        The earliest its receive could have ended: a receive that waited
        ended *at* the arrival; one posted late ended no later than the
        send's delivery.
        """
        return {(u, v): self.arrival[u] for u, v in self.message_edges}


def _edges(targets: Tuple[int, ...]) -> Tuple[Tuple[int, int], ...]:
    return tuple(sorted(((u, v) for u, v in enumerate(targets) if v >= 0), key=lambda e: e[1]))


def build_dependency_graph(events: Sequence[TraceEvent]) -> DependencyGraph:
    """Extract the dependency DAG from a trace in one FIFO-matching pass.

    Events must be in per-rank program order, which both
    :attr:`~repro.simmpi.tracing.Tracer.events` and
    :meth:`~repro.simmpi.tracing.Tracer.canonical` guarantee; a rank
    whose events start earlier than its previous one raises
    :class:`~repro.errors.ConfigurationError`.  Sends whose payload was
    dropped by fault injection produce no message edge; unmatched sends
    (e.g. to a crashed rank) simply stay leaves.
    """
    nodes = tuple(e for e in events if e.op in ("send", "recv"))
    # Identity keys of sends whose message was injected-dropped.
    dropped = {
        (e.rank, e.peer, e.tag[0] if e.tag else None, e.t_start)
        for e in events if e.op == "fault.drop"
    }
    n = len(nodes)
    successor = [-1] * n
    matched = [-1] * n
    arrival = [0.0] * n
    gap = [0.0] * n
    last_of_rank: Dict[int, int] = {}
    # FIFO queues of unmatched send indices per (src, dst, tag).
    pending: Dict[Tuple[int, int, object], deque] = {}
    for i, e in enumerate(nodes):
        rank, t_start = e.rank, e.t_start
        prev = last_of_rank.get(rank)
        if prev is not None:
            if t_start < nodes[prev].t_start:
                raise ConfigurationError(
                    f"rank {rank}'s events are not in program order: event {i} "
                    f"starts before event {prev}"
                )
            successor[prev] = i
        last_of_rank[rank] = i
        tag = e.tag[0] if e.tag else None
        if e.op == "send":
            if not dropped or (rank, e.peer, tag, t_start) not in dropped:
                key = (rank, e.peer, tag)
                queue = pending.get(key)
                if queue is None:
                    queue = pending[key] = deque()
                queue.append(i)
            continue
        queue = pending.get((e.peer, rank, tag))
        if queue:
            u = queue.popleft()
            matched[u] = i
            # The receive ended at max(posted time, arrival); if it
            # waited, its end *is* the arrival.
            t_end = e.t_end
            arrival[u] = t_end if t_end > t_start else min(t_end, nodes[u].t_end)
            gap[u] = max(0.0, t_end - arrival[u])
    return DependencyGraph(
        nodes, tuple(successor), tuple(matched), tuple(arrival), tuple(gap)
    )


@dataclasses.dataclass(frozen=True)
class CriticalEvent:
    """One hop of the critical path, with its attribution."""

    event: TraceEvent
    phase: str
    layer: int
    category: str

    @property
    def duration_s(self) -> float:
        return self.event.t_end - self.event.t_start


@dataclasses.dataclass(frozen=True)
class CriticalPathReport:
    """The longest dependency chain bounding a run's virtual makespan."""

    path: Tuple[CriticalEvent, ...]
    makespan_s: float
    slack: Tuple[float, ...]
    graph: DependencyGraph
    dropped: int = 0

    @property
    def length_s(self) -> float:
        """Virtual time covered by the chain (<= makespan by construction)."""
        if not self.path:
            return 0.0
        return self.path[-1].event.t_end - self.path[0].event.t_start

    @property
    def comm_s(self) -> float:
        """Time the critical path spends inside send/recv events."""
        return sum(c.duration_s for c in self.path)

    def by_category(self) -> Dict[str, float]:
        """Critical event time per cost-model category."""
        out: Dict[str, float] = {}
        for c in self.path:
            out[c.category] = out.get(c.category, 0.0) + c.duration_s
        return out

    def off_path_slack(self) -> List[Tuple[TraceEvent, float]]:
        """Non-critical events with their slack, largest first."""
        on_path = {id(c.event) for c in self.path}
        pairs = [
            (e, s)
            for e, s in zip(self.graph.nodes, self.slack)
            if id(e) not in on_path
        ]
        pairs.sort(key=lambda p: -p[1])
        return pairs

    @property
    def max_slack_s(self) -> float:
        return max(self.slack, default=0.0)

    def summary(self) -> Dict[str, object]:
        """JSON-safe digest for :class:`~repro.analysis.record.RunRecord`."""
        return {
            "length_s": self.length_s,
            "makespan_s": self.makespan_s,
            "events": len(self.path),
            "comm_s": self.comm_s,
            "dag_nodes": self.graph.n_nodes,
            "dag_edges": self.graph.n_edges,
            "max_slack_s": self.max_slack_s,
            "by_category": {
                k: v for k, v in sorted(self.by_category().items())
            },
        }

    def to_table(self, *, limit: Optional[int] = None) -> ResultTable:
        title = (
            f"critical path: {len(self.path)} events, "
            f"{format_seconds(self.length_s)} of "
            f"{format_seconds(self.makespan_s)} makespan"
        )
        if self.dropped:
            title += (
                f"  [WARNING: {self.dropped} events dropped; "
                "the path may be incomplete]"
            )
        table = ResultTable(
            title,
            columns=[
                "hop", "rank", "op", "peer", "t_start", "duration",
                "phase", "layer", "category",
            ],
        )
        path = self.path if limit is None else self.path[:limit]
        for hop, c in enumerate(path):
            table.add_row(
                hop=hop,
                rank=c.event.rank,
                op=c.event.op,
                peer=c.event.peer,
                t_start=format_seconds(c.event.t_start),
                duration=format_seconds(c.duration_s),
                phase=c.phase,
                layer=c.layer,
                category=c.category,
            )
        return table


def critical_path(
    events: Sequence[TraceEvent],
    *,
    clocks: Optional[Sequence[float]] = None,
    dropped: int = 0,
) -> CriticalPathReport:
    """Extract the critical path and per-event slack of a trace.

    ``clocks`` (the run's final per-rank virtual clocks) pin each
    rank's true wall time so trailing local compute after its last
    message counts against its slack; without them the last event of a
    rank is assumed to end its timeline.  Raises
    :class:`~repro.errors.ConfigurationError` on a trace with no p2p
    events.
    """
    graph = build_dependency_graph(events)
    if not graph.nodes:
        raise ConfigurationError(
            "cannot extract a critical path: the trace has no p2p events"
        )
    nodes, successor, matched, gap = graph.nodes, graph.successor, graph.matched, graph.gap
    n = graph.n_nodes
    # A node with no successor ends its rank's timeline.  The tail
    # compute between it and the rank's final clock is rigid: delaying
    # the event delays the clock one-for-one.
    tail: Dict[int, float] = {}
    for i in range(n):
        if successor[i] < 0 and matched[i] < 0:
            wall = nodes[i].t_end
            if clocks is not None and nodes[i].rank < len(clocks):
                wall = max(wall, float(clocks[nodes[i].rank]))
            tail[i] = wall
    makespan = max(0.0, *tail.values())
    if clocks is not None and len(clocks) > 0:
        makespan = max(makespan, max(float(c) for c in clocks))
    # One reverse sweep: every edge points forward, so each node's
    # successors are final before it is visited.  Program-order edges
    # are rigid (gap 0); a message edge absorbs its mailbox wait.
    slack = [0.0] * n
    for u in range(n - 1, -1, -1):
        v, m = successor[u], matched[u]
        if m < 0:
            slack[u] = makespan - tail[u] if v < 0 else slack[v]
        elif v < 0:
            slack[u] = slack[m] + gap[u]
        else:  # min(), inlined: the program edge wins ties
            via_message = slack[m] + gap[u]
            slack[u] = via_message if via_message < slack[v] else slack[v]
    # Walk the zero-slack chain forward from its earliest member, taking
    # the earliest zero-gap, zero-slack successor at each hop.
    start = min(
        (i for i in range(n) if slack[i] <= _EPS),
        key=lambda i: (nodes[i].t_start, nodes[i].t_end),
        default=None,
    )
    path_idx: List[int] = []
    cur = start
    while cur is not None:
        path_idx.append(cur)
        hops = [(successor[cur], 0.0), (matched[cur], gap[cur])]
        cur = min(
            (v for v, g in hops if v >= 0 and g <= _EPS and slack[v] <= _EPS),
            default=None,
        )
    path = tuple(
        CriticalEvent(graph.nodes[i], *attribute_event(graph.nodes[i]))
        for i in path_idx
    )
    return CriticalPathReport(
        path=path,
        makespan_s=makespan,
        slack=tuple(slack),
        graph=graph,
        dropped=dropped,
    )
