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

A round costs its updates (§4): a quiet host — empty frontier, under a
program whose empty-frontier round is idle — is not computed, an apply
mask nothing reads is not built, a program without a frontier gets no
frontier merges, active counts or change masks beyond what its plain
apply reads, and frontiers are merged copy-on-write instead of copied
up front.

Every phase syncs all fields at once: one framed buffer per peer.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Callable, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.comm.frame import frame_overhead
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
    arrived, or the reduce was not driven).  A hook's mask wins; without
    a hook, or when it returns ``None``, the changed masters and the
    masters the step itself wrote broadcast.  Without a frontier a
    hooked field's reduce builds no change mask: its hook gets ``None``
    and must return its mask, since the plain rule has nothing to read.
    """
    if field.on_master_after_reduce is not None:
        if reduce_changed is None and uses_frontier:
            reduce_changed = np.zeros(len(outcome.updated), dtype=bool)
        dirty = field.on_master_after_reduce(reduce_changed)
        if dirty is not None:
            return dirty
        if not uses_frontier:
            raise SyncError(
                f"field {field.name!r}: its master-side hook returned no "
                "dirty mask, and a program without a frontier builds no "
                "reduce change mask for the plain rule to fall back on"
            )
    if reduce_changed is None:
        dirty = outcome.updated.copy()
    else:
        dirty = reduce_changed | outcome.updated
    dirty[part.num_masters :] = False
    return dirty


def merge_frontier(next_frontiers, h, step_mask, mask) -> None:
    """OR ``mask`` into host ``h``'s next frontier.

    A next frontier may still be ``step_mask`` itself — the step's own
    written mask, which :func:`run_hosts` hands over uncopied because a
    quiet host merges nothing.  The first merge into it copies, so the
    step's mask is never written through.
    """
    frontier = next_frontiers[h]
    if frontier is step_mask:
        next_frontiers[h] = frontier | mask
    else:
        frontier |= mask


def apply_hooks_locally(hosts, fields, outcomes, next_frontiers) -> None:
    """Run master-side apply hooks when sync is disabled (1 host).

    ``next_frontiers`` is ``None`` for a program without a frontier: a
    hook then gets ``None`` and its mask is not merged anywhere.
    """
    for h in hosts:
        for field in fields[h]:
            if field.on_master_after_reduce is not None:
                if next_frontiers is None:
                    field.on_master_after_reduce(None)
                    continue
                no_changes = np.zeros(len(field.values), dtype=bool)
                dirty = field.on_master_after_reduce(no_changes)
                if dirty is not None:
                    merge_frontier(next_frontiers, h, outcomes[h].updated, dirty)


def _phase(kind, live, hosts, substrates, fields, stage, receive, end_phase, record):
    """Stage, flush and receive one phase of every field.

    ``stage(h, slot)`` stages host ``h``'s sub-messages for its
    ``slot``-th field; ``receive(h)`` applies ``h``'s inbox and returns
    its per-field changed masks (``None`` where nothing changed).  A
    ``record`` sink gets one ``(label, [(src, dst, nbytes)...],
    serialize_wall_s, apply_wall_s)`` entry per field over its
    sub-message sizes, plus a ``framing:`` entry for the
    flushed frames' header bytes, so the entries' byte totals reconcile
    exactly with the transport's round volume.

    A phase that is not ``live`` is not driven: every mask is ``None``.
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

    ``outcomes[h].updated`` is host ``h``'s dirty mask; every proxy the
    collective changes, and every master the apply marks dirty, is OR-ed
    into ``next_frontiers[h]`` (see :func:`merge_frontier`: an entry that
    *is* the dirty mask is replaced, never written through).
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
    master-side apply runs every round its mask has a reader: a hook, or
    a live broadcast.  Without a frontier (the plan's
    ``uses_frontier``) nothing is merged: ``next_frontiers`` is left as
    it came.
    """
    first = hosts[0]
    plan = substrates[first].plan
    frontier = plan.uses_frontier
    seeded = {h for h in hosts if next_frontiers[h] is outcomes[h].updated}
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
    for h in hosts:
        step_mask = outcomes[h].updated
        for field, changed in zip(fields[h], reduce_changed[h]):
            if frontier and changed is not None:
                merge_frontier(next_frontiers, h, step_mask, changed)
            if broadcast_live or field.on_master_after_reduce is not None:
                field_dirty = broadcast_dirty(
                    parts[h], field, changed, outcomes[h], frontier
                )
                dirty[h].append(field_dirty)
                if frontier:
                    merge_frontier(next_frontiers, h, step_mask, field_dirty)
            elif frontier and h not in seeded:
                # The apply's mask has no reader — no hook rewrites it,
                # no broadcast stages it — so it is not built.  Its
                # frontier share beyond the changed masters is the
                # masters the step wrote, which a frontier seeded with
                # the step's mask already holds.
                masters = parts[h].num_masters
                next_frontiers[h][:masters] |= step_mask[:masters]
    broadcast_changed = _phase(
        "broadcast", broadcast_live, hosts, substrates, fields,
        lambda h, slot: substrates[h].stage_broadcast(
            slot, fields[h][slot], dirty[h][slot]
        ),
        lambda h: substrates[h].receive_broadcast_all(fields[h]),
        end_phase, record,
    )
    for h in hosts:
        for mask in broadcast_changed[h]:
            if mask is not None:
                merge_frontier(next_frontiers, h, outcomes[h].updated, mask)
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
    performed.  A next frontier may be the step's own mask (nothing
    merged into it); no caller writes a frontier in place.  A program
    without a frontier (topology-driven) gets its step masks back
    unmerged and computes every proxy next round, so its count is
    ``num_nodes``.
    """
    outcomes = {}
    comp_times = {}
    quiet = set()
    for h in hosts:
        frontier = frontiers[h]
        if app.empty_frontier_is_idle and not frontier.any():
            # A quiet host: its round is the idle step, known without
            # running it.  The all-False frontier doubles as the step's
            # written mask (no caller writes either in place).
            outcome = _IdleRound(frontier)
            quiet.add(h)
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
            hosts, fields, outcomes, next_frontiers if app.uses_frontier else None
        )
    if not app.uses_frontier:
        active = {h: parts[h].num_nodes for h in hosts}
    else:
        # A quiet host nothing was merged into still holds its empty frontier.
        active = {
            h: 0 if h in quiet and next_frontiers[h] is frontiers[h]
            else int(np.count_nonzero(next_frontiers[h]))
            for h in hosts
        }
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
