"""Span-based tracing of the simulated cluster.

A :class:`Span` is one named, timestamped interval of work attributed to
one simulated host (or to the *driver* — the partitioner / checkpoint /
recovery machinery that runs outside the per-host BSP phases).  Spans
live on the run's **simulated timeline**: the executor places them using
the same alpha-beta cost-model clock that produces
:class:`~repro.runtime.stats.RunResult` times, so a Chrome trace of a run
shows exactly the time breakdown the paper's figures report — per host,
per round, per synchronization phase.

Nesting is positional, as in the Chrome trace-event model: a span whose
interval is contained in another span's interval on the same host track
renders as its child.  The executor guarantees containment by
construction (compute and sync spans inside the round span, per-field
phase spans inside the sync span).

The default tracer is :data:`NULL_TRACER`: recording is disabled and
:meth:`Tracer.record` returns immediately without allocating a
:class:`Span` — instrumented code paths stay allocation-free unless a
run opts in (``repro run --trace``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Pseudo host id for work not attributable to a single simulated host
#: (partitioning, memoization setup, checkpoints, recovery).
DRIVER = -1


@dataclass
class Span:
    """One completed interval of work on the simulated timeline."""

    name: str
    cat: str
    host: int
    begin_s: float
    duration_s: float
    tags: Dict = field(default_factory=dict)

    @property
    def end_s(self) -> float:
        """The span's end timestamp (seconds)."""
        return self.begin_s + self.duration_s

    def contains(self, other: "Span") -> bool:
        """Whether ``other`` nests inside this span on the same track."""
        return (
            self.host == other.host
            and self.begin_s <= other.begin_s
            and other.end_s <= self.end_s + 1e-15
        )


class Tracer:
    """Records completed spans; the active half of the observability pair.

    All spans carry explicit ``(begin_s, duration_s)`` intervals and the
    tracer owns the only simulated cursor (:attr:`cursor`): every layer
    places its spans from it, the tracer never reads wall time, and
    traces are deterministic.
    """

    #: Hot paths check this before building tag dicts; the null tracer
    #: overrides it to False.
    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._cursor = 0.0

    def record(
        self,
        name: str,
        *,
        cat: str = "",
        host: int = DRIVER,
        begin_s: float,
        duration_s: float,
        **tags,
    ) -> Optional[Span]:
        """Record one completed span at an explicit interval."""
        span = Span(
            name=name,
            cat=cat,
            host=host,
            begin_s=float(begin_s),
            duration_s=float(duration_s),
            tags=tags,
        )
        self.spans.append(span)
        return span

    def record_sequential(
        self,
        name: str,
        duration_s: float,
        *,
        cat: str = "",
        host: int = DRIVER,
        **tags,
    ) -> Optional[Span]:
        """Record a span at the driver cursor and advance the cursor.

        Used for the setup pipeline (partition, memoization) whose stages
        happen one after another before the BSP rounds start.
        """
        span = self.record(
            name,
            cat=cat,
            host=host,
            begin_s=self._cursor,
            duration_s=duration_s,
            **tags,
        )
        self._cursor += float(duration_s)
        return span

    @property
    def cursor(self) -> float:
        """The run's one simulated clock: where the next span would start.

        Setup stages, BSP rounds, recovery stalls and streaming steps
        advance it; spans that overlap the timeline without stalling it
        (checkpoints, a mid-run repartition) are recorded *at* it.
        """
        return self._cursor

    def advance_to(self, timestamp_s: float) -> None:
        """Set the cursor to the close of spans placed by hand (a BSP round)."""
        self._cursor = float(timestamp_s)

    # -- queries (tests and the trace summarizer) --------------------------

    def spans_for_host(self, host: int) -> List[Span]:
        """All spans attributed to ``host``, in recording order."""
        return [span for span in self.spans if span.host == host]

    def spans_named(self, name: str) -> List[Span]:
        """All spans with exactly this name, in recording order."""
        return [span for span in self.spans if span.name == name]

    def children_of(self, parent: Span) -> List[Span]:
        """Spans strictly nested inside ``parent`` on the same track."""
        return [
            span
            for span in self.spans
            if span is not parent and parent.contains(span)
        ]


class NullTracer(Tracer):
    """Disabled tracer: every record is a no-op that allocates nothing."""

    enabled = False

    def __init__(self) -> None:
        #: Immutable on purpose: a bug that records through the null
        #: tracer fails loudly instead of silently growing a list.
        self.spans = ()
        self._cursor = 0.0

    def record(self, name, **kwargs):  # noqa: D102 - interface no-op
        return None

    def record_sequential(self, name, duration_s, **kwargs):  # noqa: D102
        return None


#: Shared disabled tracer; the executor default.
NULL_TRACER = NullTracer()
