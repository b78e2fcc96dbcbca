"""One BSP round, written once (§2.2, §3).

Gluon's synchronization is a single runtime-agnostic collective —
reduce, master-side apply, broadcast — and :func:`synchronize` is its
only implementation: both runtimes, the confined-recovery healing round
and the unit tests call it.
:func:`run_hosts` is the round body around it (operator application,
then the collective) and :func:`close_round` prices the round's exact
byte trace through :func:`price_round`.

Every container is indexed by host id: the simulated runtime passes its
per-host lists with ``hosts=range(n)``, a process worker passes
``{host: ...}`` dicts with the hosts it owns.

A round costs its updates (§4): every frontier, written, changed and
dirty set is sorted local IDs (:mod:`repro.core.index_sets`), so a
quiet host — empty frontier, under a program whose empty-frontier round
is idle — is found by ``len`` and not computed, an apply set nothing
reads is not built, a program without a frontier gets no frontier
merges, active counts or change sets beyond what its plain apply
reads, and a host's next frontier is one union of its round's sets.

Every phase syncs all fields at once: one framed buffer per peer.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Callable, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.comm.frame import frame_overhead
from repro.core import index_sets
from repro.errors import SyncError
from repro.runtime.timing import WorkStats, round_communication_time

#: Simulated cost of the substrate scanning one proxy's dirty bit during a
#: field synchronization.  This is the (small) per-round price of the
#: Gluon layer that Table 4 measures on a single host.
SYNC_SCAN_PER_NODE_S = 2.0e-10

_UNGUARDED = nullcontext()


class _IdleRound(NamedTuple):
    """The outcome of a step over an empty frontier (see
    ``VertexProgram.empty_frontier_is_idle``): nothing written, one empty
    step of work."""

    updated: np.ndarray
    work: WorkStats = WorkStats()


def broadcast_dirty(
    part, field, reduce_changed, outcome, uses_frontier: bool = True
) -> np.ndarray:
    """Master-side apply: which masters broadcast after the reduce.

    ``reduce_changed`` is ``None`` when no master changed (nothing
    arrived, or the reduce was not driven).  A hook's set wins; without
    a hook, or when it returns ``None``, the changed masters and the
    masters the step itself wrote broadcast.  Without a frontier a
    hooked field's reduce builds no change set: its hook gets ``None``
    and must return its set, since the plain rule has nothing to read.
    Every set is sorted local IDs (:mod:`repro.core.index_sets`).
    """
    if field.on_master_after_reduce is not None:
        if reduce_changed is None and uses_frontier:
            reduce_changed = index_sets.EMPTY
        dirty = field.on_master_after_reduce(reduce_changed)
        if dirty is not None:
            return dirty
        if not uses_frontier:
            raise SyncError(
                f"field {field.name!r}: its master-side hook returned no "
                "dirty set, and a program without a frontier builds no "
                "reduce change set for the plain rule to fall back on"
            )
    written = index_sets.masters_of(outcome.updated, part.num_masters)
    if reduce_changed is None:
        return written
    return index_sets.union((reduce_changed, written), len(field.values))


def apply_hooks_locally(hosts, fields, next_frontiers) -> None:
    """Run master-side apply hooks when sync is disabled (1 host).

    ``next_frontiers`` is ``None`` for a program without a frontier: a
    hook then gets ``None`` and its set is not merged anywhere.
    """
    for h in hosts:
        for field in fields[h]:
            if field.on_master_after_reduce is not None:
                if next_frontiers is None:
                    field.on_master_after_reduce(None)
                    continue
                dirty = field.on_master_after_reduce(index_sets.EMPTY)
                if dirty is not None:
                    next_frontiers[h] = index_sets.union(
                        (next_frontiers[h], dirty), len(field.values)
                    )


def _phase(kind, live, hosts, substrates, fields, stage, receive, end_phase, record):
    """Stage, flush and receive one phase of every field.

    ``stage(h, slot)`` stages host ``h``'s sub-messages for its
    ``slot``-th field; ``receive(h)`` applies ``h``'s inbox and returns
    its per-field changed sets (``None`` where nothing changed).  A
    ``record`` sink gets one ``(label, [(src, dst, nbytes)...],
    serialize_wall_s, apply_wall_s)`` entry per field over its
    sub-message sizes, plus a ``framing:`` entry for the
    flushed frames' header bytes, so the entries' byte totals reconcile
    exactly with the transport's round volume.

    A phase that is not ``live`` is not driven: every set is ``None``.
    Its zero-byte records are still left — the tracer splits a byte-less
    round's window evenly among the records it finds.
    """
    width = len(fields[hosts[0]])
    tracing = record is not None
    if not live:
        if tracing:
            record.extend(
                (f"{kind}:{field.name}", [], 0.0, 0.0) for field in fields[hosts[0]]
            )
        return {h: [None] * width for h in hosts}
    if tracing:
        messages = [[] for _ in range(width)]
        serialize_walls = [0.0] * width
    for slot in range(width):
        if tracing:
            wall_start = time.perf_counter()
        for h in hosts:
            staged = stage(h, slot)
            if tracing:
                messages[slot].extend((h, peer, n) for peer, n in staged)
        if tracing:
            serialize_walls[slot] = time.perf_counter() - wall_start
    flushed = [(h, substrates[h].flush_phase(width)) for h in hosts]
    if end_phase is not None:
        for h in hosts:
            end_phase(h)
    if tracing:
        wall_start = time.perf_counter()
    changed = {h: receive(h) for h in hosts}
    if tracing:
        apply_share = (time.perf_counter() - wall_start) / width
        for slot, field in enumerate(fields[hosts[0]]):
            record.append(
                (
                    f"{kind}:{field.name}",
                    messages[slot],
                    serialize_walls[slot],
                    apply_share,
                )
            )
        overhead = frame_overhead(width)
        framing = [
            (h, peer, overhead) for h, frames in flushed for peer, _ in frames
        ]
        if framing:
            record.append((f"framing:{kind}", framing, 0.0, 0.0))
    return changed


def synchronize(
    hosts: Sequence[int],
    substrates,
    fields,
    parts,
    outcomes,
    next_frontiers,
    end_phase: Optional[Callable[[int], None]] = None,
    record: Optional[List] = None,
) -> None:
    """Run the reduce/apply/broadcast collective over ``hosts``.

    ``outcomes[h].updated`` is host ``h``'s dirty set; every proxy the
    collective changes, and every master the apply marks dirty, joins
    ``next_frontiers[h]``, which is replaced by one union per host at the
    end (sets are never written in place).
    ``end_phase(h)`` runs after each of ``h``'s flushes — how a
    cross-process transport tells its peers the phase's mail is
    complete; all of a caller's flushes precede all of its receives
    within a phase, so a barrier per phase cannot deadlock.  ``record``
    is the tracer's phase-record sink (see :func:`_phase`); without it
    no clock is read and nothing is collected.

    Each phase stages every field, then flushes one frame per peer.  A
    phase the sync plan calls dead for every field
    (:meth:`~repro.core.patterns.SyncPlan.live`, a cluster-wide verdict)
    is not driven: nothing is staged, flushed, marked or received.  The
    master-side apply runs every round its set has a reader: a hook, or
    a live broadcast.  Without a frontier (the plan's
    ``uses_frontier``) nothing is merged: ``next_frontiers`` is left as
    it came.
    """
    first = hosts[0]
    plan = substrates[first].plan
    frontier = plan.uses_frontier
    reduce_changed = _phase(
        "reduce", plan.live("reduce"), hosts, substrates, fields,
        lambda h, slot: substrates[h].stage_reduce(
            slot, fields[h][slot], outcomes[h].updated
        ),
        lambda h: substrates[h].receive_reduce_all(fields[h]),
        end_phase, record,
    )
    broadcast_live = plan.live("broadcast")
    dirty = {h: [] for h in hosts}
    joins = {h: [next_frontiers[h]] for h in hosts}
    for h in hosts:
        step = outcomes[h]
        for field, changed in zip(fields[h], reduce_changed[h]):
            if frontier and changed is not None:
                joins[h].append(changed)
            if broadcast_live or field.on_master_after_reduce is not None:
                field_dirty = broadcast_dirty(
                    parts[h], field, changed, step, frontier
                )
                dirty[h].append(field_dirty)
                if frontier:
                    joins[h].append(field_dirty)
            elif frontier and next_frontiers[h] is not step.updated:
                # The apply's set has no reader — no hook rewrites it,
                # no broadcast stages it — so it is not built.  Its
                # frontier share beyond the changed masters is the
                # masters the step wrote, which a frontier seeded with
                # the step's set already holds.
                joins[h].append(
                    index_sets.masters_of(step.updated, parts[h].num_masters)
                )
    broadcast_changed = _phase(
        "broadcast", broadcast_live, hosts, substrates, fields,
        lambda h, slot: substrates[h].stage_broadcast(
            slot, fields[h][slot], dirty[h][slot]
        ),
        lambda h: substrates[h].receive_broadcast_all(fields[h]),
        end_phase, record,
    )
    for h in hosts:
        joins[h].extend(c for c in broadcast_changed[h] if c is not None)
        if len(joins[h]) > 1:
            next_frontiers[h] = index_sets.union(joins[h], parts[h].num_nodes)
    # Drain guard: a sub-message staged after its phase flush would sit
    # in a channel buffer forever — fail loudly at the round boundary,
    # complementing the transport's own undelivered-mail detection.
    for h in hosts:
        substrates[h].assert_drained()


def run_hosts(
    hosts, engines, app, parts, states, fields, frontiers, substrates,
    end_phase=None, record=None, guard=None,
):
    """The round body on ``hosts``: apply the operator, then synchronize.

    ``guard(h)``, when given, is a context manager around host ``h``'s
    compute (the proxy sanitizer).  Empty ``substrates`` means
    synchronization is disabled (single host): only the master-side
    hooks run.  Returns ``(comp_times, next_frontiers, active,
    translation_deltas)`` keyed by host: simulated compute seconds
    including the sync-scan term, the proxies active next round and
    their count, and the address translations this round's sync
    performed.  A next frontier may be the step's own written set
    (nothing merged into it).  A program without a frontier
    (topology-driven) gets its written sets back unmerged and computes
    every proxy next round, so its count is ``num_nodes``.
    """
    outcomes = {}
    comp_times = {}
    for h in hosts:
        frontier = frontiers[h]
        if app.empty_frontier_is_idle and not len(frontier):
            # A quiet host: its round is the idle step, known without
            # running it.  The empty frontier doubles as the step's
            # written set.
            outcome = _IdleRound(frontier)
        else:
            with guard(h) if guard is not None else _UNGUARDED:
                outcome = engines[h].compute_round(
                    app, parts[h], states[h], frontier
                )
        outcomes[h] = outcome
        comp_times[h] = engines[h].compute_time(outcome.work)
        if substrates:
            comp_times[h] += (
                parts[h].num_nodes * len(fields[h]) * SYNC_SCAN_PER_NODE_S
            )
    next_frontiers = {h: outcomes[h].updated for h in hosts}
    translation_deltas = {}
    if substrates:
        before = {h: substrates[h].stats.translations for h in hosts}
        synchronize(
            hosts, substrates, fields, parts, outcomes, next_frontiers,
            end_phase, record,
        )
        translation_deltas = {
            h: substrates[h].stats.translations - before[h] for h in hosts
        }
    else:
        apply_hooks_locally(
            hosts, fields, next_frontiers if app.uses_frontier else None
        )
    if app.uses_frontier:
        active = {h: len(next_frontiers[h]) for h in hosts}
    else:
        active = {h: parts[h].num_nodes for h in hosts}
    return comp_times, next_frontiers, active, translation_deltas


def price_round(traffic, engines, cost_model, translation_deltas) -> float:
    """Simulated communication seconds of one round's message trace.

    ``traffic`` is the round's :class:`~repro.network.stats.RoundTraffic`
    (every ``(src, dst, nbytes)`` message in send order).  Per-host
    extras on top of the alpha-beta model: address-translation work
    (temporal optimization off) and host<->device copies for GPU
    engines.
    """
    num_hosts = len(engines)
    extras = [0.0] * num_hosts
    for h, delta in translation_deltas.items():
        extras[h] += delta * engines[h].cost.translation_s
    devices = [
        h for h in range(num_hosts)
        if engines[h].is_gpu and engines[h].cost.device_bandwidth_bytes_per_s
    ]
    if devices:
        sent, received = traffic.bytes_by_host(num_hosts)
    for h in devices:
        cost = engines[h].cost
        moved = sent[h] + received[h]
        if moved:
            extras[h] += (
                moved / cost.device_bandwidth_bytes_per_s
                + 2 * cost.device_latency_s
            )
    return round_communication_time(traffic, num_hosts, cost_model, extras)


def close_round(transport, engines, cost_model, translation_deltas):
    """End the transport round and price its exact byte trace (see
    :func:`price_round`).  Returns ``(traffic, comm_time)``."""
    traffic = transport.stats.current_round
    transport.end_round()
    return traffic, price_round(traffic, engines, cost_model, translation_deltas)


def close_exchange(transport, cost_model):
    """End a construction/recovery exchange round and price it.

    The memoization exchange and the healing round of confined recovery
    are plain alpha-beta traffic with no per-host extras.  Returns
    ``(bytes, simulated_time)``.
    """
    traffic = transport.stats.current_round
    sim_time = round_communication_time(
        traffic, transport.num_hosts, cost_model
    )
    transport.end_round()
    return traffic.total_bytes, sim_time
