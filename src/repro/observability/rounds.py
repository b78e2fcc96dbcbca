"""One BSP round, mapped onto trace spans and metrics.

The executor measures a round (:class:`~repro.parallel.runner.RoundData`:
per-host compute seconds, the priced byte trace, the sync-phase
records); this module turns that measurement into the span tree the
Chrome trace shows and the aggregates the metrics registry holds.  The
functions take the tracer / registry and plain values — no executor —
so the mapping is testable on a hand-made ``RoundData``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.parallel.runner import RoundData


def trace_round(
    tracer: Tracer,
    round_index: int,
    data: RoundData,
    *,
    app: str,
    policy: str,
    engines: Sequence[str],
) -> None:
    """Emit the round's spans on every host's simulated timeline.

    BSP shape: all hosts start the round together at the tracer's
    cursor, compute spans end at each host's own pace (the visual
    load-imbalance gap), the sync span covers the shared communication
    window (tagged with the host's address translations), and the
    per-field reduce/broadcast phase spans nest inside it.  ``engines``
    names each host's engine; the cursor ends at the round's close.
    """
    t0 = tracer.cursor
    num_hosts = len(engines)
    comp_times, comm_time = data.comp_times, data.comm_time
    comp_max = max(comp_times) if comp_times else 0.0
    sync_start = t0 + comp_max
    sent, received = data.traffic.bytes_by_host(num_hosts)
    for h in range(num_hosts):
        tracer.record(
            "round",
            cat="round",
            host=h,
            begin_s=t0,
            duration_s=comp_max + comm_time,
            round=round_index,
            app=app,
            policy=policy,
            active_nodes=data.active,
        )
        tracer.record(
            "compute",
            cat="compute",
            host=h,
            begin_s=t0,
            duration_s=comp_times[h],
            round=round_index,
            engine=engines[h],
        )
        tracer.record(
            "sync",
            cat="communication",
            host=h,
            begin_s=sync_start,
            duration_s=comm_time,
            round=round_index,
            bytes_sent=sent[h],
            bytes_recv=received[h],
            translations=data.translation_deltas.get(h, 0),
        )
    _trace_phases(
        tracer, num_hosts, sync_start, comm_time, data.phase_records,
        round_index,
    )
    # Parenthesized like the round span's end, so the two are bit-equal.
    tracer.advance_to(t0 + (comp_max + comm_time))


def _trace_phases(
    tracer: Tracer,
    num_hosts: int,
    begin_s: float,
    comm_time: float,
    records: List,
    round_index: int,
) -> None:
    """Nest per-field reduce/broadcast (and serialize/apply) spans.

    The cost model prices the communication window as a whole, so the
    window is apportioned among phases by their exact byte volumes,
    and each phase is split into its serialize (encode+send) and
    apply (decode+reduce/set) halves by measured wall-time ratio.
    Each record carries its own (src, dst, nbytes) message list of
    per-field sub-message sizes — so per-field spans survive
    aggregation via byte attribution; each host's span keeps its
    ``(dst, nbytes)`` share as ``staged``, in stage order.
    """
    if not records:
        return
    phase_bytes = [
        sum(nbytes for _, _, nbytes in msgs)
        for _, msgs, _, _ in records
    ]
    grand_total = sum(phase_bytes)
    cursor = begin_s
    for (label, slice_msgs, wall_ser, wall_apply), nbytes in zip(
        records, phase_bytes
    ):
        if grand_total > 0:
            share = comm_time * (nbytes / grand_total)
        else:
            share = comm_time / len(records)
        sent = [0] * num_hosts
        received = [0] * num_hosts
        staged = [[] for _ in range(num_hosts)]
        for src, dst, size in slice_msgs:
            sent[src] += size
            received[dst] += size
            staged[src].append((dst, size))
        wall_total = wall_ser + wall_apply
        ser_frac = (wall_ser / wall_total) if wall_total > 0 else 0.5
        for h in range(num_hosts):
            tracer.record(
                label,
                cat="sync-phase",
                host=h,
                begin_s=cursor,
                duration_s=share,
                round=round_index,
                bytes=sent[h],
                bytes_recv=received[h],
                messages=len(staged[h]),
                staged=staged[h],
            )
            tracer.record(
                "serialize",
                cat="serialize",
                host=h,
                begin_s=cursor,
                duration_s=share * ser_frac,
                round=round_index,
            )
            tracer.record(
                "apply",
                cat="apply",
                host=h,
                begin_s=cursor + share * ser_frac,
                duration_s=share * (1.0 - ser_frac),
                round=round_index,
            )
        cursor += share


def publish_round_metrics(metrics: MetricsRegistry, data: RoundData) -> None:
    """Publish the round's aggregates into the metrics registry."""
    metrics.counter("rounds_total").inc()
    metrics.counter("comm_time_seconds_total").inc(data.comm_time)
    metrics.counter("comp_time_seconds_total").inc(
        max(data.comp_times) if data.comp_times else 0.0
    )
    metrics.histogram("round_bytes").observe(data.traffic.total_bytes)
    metrics.histogram("round_messages").observe(data.traffic.num_messages)
    metrics.gauge("active_nodes").set(data.active)


def publish_run_metrics(metrics: MetricsRegistry, result, faults=None) -> None:
    """Publish the run-level gauges and snapshot the registry on ``result``.

    Gauges (idempotent) because resumed runs re-finalize.  ``faults`` is
    the fabric's ``FaultStats`` when a fault plan was injected.
    """
    if faults is not None:
        metrics.gauge("faults_injected").set(faults.total_injected)
        metrics.gauge("fault_bytes").set(faults.fault_bytes)
        metrics.gauge("framing_bytes").set(faults.framing_bytes)
    metrics.gauge("replication_factor").set(result.replication_factor)
    result.metrics = metrics.to_dict()


def message_observer(metrics: MetricsRegistry, num_hosts: int):
    """Per-message metrics hook for the transport's ``CommStats``.

    Hooking :meth:`CommStats.record` itself means the published byte
    counters reconcile exactly (==) with the transport's accounting —
    including memoization exchanges, integrity framing, and fault
    retransmissions.
    """
    sent = [
        metrics.counter("bytes_sent_total", host=h) for h in range(num_hosts)
    ]
    received = [
        metrics.counter("bytes_recv_total", host=h) for h in range(num_hosts)
    ]
    messages = metrics.counter("messages_total")
    sizes = metrics.histogram("message_size_bytes")

    def observe(src: int, dst: int, nbytes: int) -> None:
        sent[src].inc(nbytes)
        received[dst].inc(nbytes)
        messages.inc()
        sizes.observe(nbytes)

    return observe
