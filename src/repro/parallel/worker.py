"""The per-process host worker of the multiprocess runtime.

:func:`worker_main` is the ``fork`` entry point.  Worker ``w`` of ``W``
owns the simulated hosts ``{h : h % W == w}``: it reads their partitions
and address books off the executor it was forked from (inherited through
``fork``), reads its hosts' arrays out of the state arena it inherited
with them, rebuilds its hosts' states, fields, and Gluon substrates,
then executes rounds on the coordinator's command — or exits once the
coordinator is gone.

A round is the shared body of :mod:`repro.runtime.round` — the very
function the simulated runtime runs — over the worker's owned hosts,
with one addition: the collective's ``end_phase`` hook emits the
:class:`~repro.parallel.rings.RingTransport` end-of-phase doorbells that
unblock the receivers.  All of a worker's flushes precede all of its
receives within a phase, so the barrier-per-phase protocol cannot
deadlock.

Per round the worker reports raw measurements only — counted work
converted to per-host compute seconds, per-host active counts and local
residuals, per-phase ``(src, dst, nbytes)`` traffic records, translation
deltas, and fault bytes.  The coordinator owns the clock: it replays the
traffic through its own :class:`~repro.network.stats.CommStats` and the
alpha-beta model so "cluster time" stays bitwise identical to the
simulated runtime.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import traceback
from typing import Dict

from repro.core.substrate import GluonSubstrate, bind_sync_plans
from repro.parallel.rings import LIVENESS_POLL_S, SEQ_STRIDE, RingFabric, RingTransport
from repro.resilience.faults import FaultInjector
from repro.resilience.transport import FaultyTransport
from repro.runtime.round import run_hosts


class _HostWorker:
    """One worker's live state: partitions, states, fields, substrates."""

    def __init__(self, ex, index: int, workers: int, arena: Dict, fabric: RingFabric) -> None:
        self.ex = ex
        self.owned = list(range(index, ex.partitioned.num_hosts, workers))
        self.arena = arena
        self.parts = ex.partitioned.partitions
        self.rings = RingTransport(fabric)
        self.transport = self.rings
        if ex.fault_injector is not None:
            # Disjoint per-worker sequence namespaces so frames from
            # different workers never collide at a receiver's duplicate
            # filter (the coordinator's own injector, used by the
            # memoization exchange, owns the base-0 range).
            self.transport = FaultyTransport(
                ex.partitioned.num_hosts,
                FaultInjector(
                    ex.fault_injector.plan, seq_base=(index + 1) * SEQ_STRIDE
                ),
                inner=self.rings,
            )
        self.states = {
            h: {
                key: arena.get((h, key), value)
                for key, value in ex.states[h].items()
            }
            for h in self.owned
        }
        self.fields = {
            h: ex.app.make_fields(self.parts[h], self.states[h])
            for h in self.owned
        }
        self.substrates: Dict[int, GluonSubstrate] = {}
        if ex.enable_sync:
            books = [sub.book for sub in ex.substrates]
            self.substrates = {
                h: GluonSubstrate(self.parts[h], self.transport, ex.level, books[h])
                for h in self.owned
            }
            # All books, not just the owned hosts': every worker must
            # reach the same verdict on which phases are dead.
            bind_sync_plans(
                self.owned, self.substrates, self.fields, books,
                ex.app.uses_frontier,
            )
        self.frontiers = {h: ex.frontiers[h] for h in self.owned}

    # -- one BSP round ------------------------------------------------------

    def run_round(self) -> Dict:
        app = self.ex.app
        comp_times, next_frontiers, active, translation_deltas = run_hosts(
            self.owned, self.ex.engines, app, self.parts, self.states,
            self.fields, self.frontiers, self.substrates,
            end_phase=self.rings.finish_phase,
        )
        residuals = None
        if app.uses_frontier:
            self.frontiers.update(next_frontiers)
        else:
            residuals = {
                h: float(app.local_residual(self.states[h]))
                for h in self.owned
            }
        fault_bytes = 0
        if self.transport is not self.rings:
            fault_bytes = self.transport.take_round_fault_bytes()
        records = self.rings.stats.take()
        self.rings.end_round()
        return {
            "comp_times": comp_times,
            "active": active,
            "residuals": residuals,
            "records": records,
            "translation_deltas": translation_deltas,
            "fault_bytes": fault_bytes,
        }

    # -- teardown -----------------------------------------------------------

    def final_report(self) -> Dict:
        """State divergences and counters, shipped once at stop."""
        divergent = {}
        for h in self.owned:
            divergent[h] = {
                key: value
                for key, value in self.states[h].items()
                if (h, key) not in self.arena or value is not self.arena[h, key]
            }
        faults = None
        if self.transport is not self.rings:
            faults = self.transport.faults
        return {
            "divergent": divergent,
            "substrate_stats": [sub.stats for sub in self.substrates.values()],
            "faults": faults,
        }


def worker_main(ex, index, workers, arena, fabric, cmd_q, report_q) -> None:
    """Process entry point: build the hosts, then serve round commands
    until stop — or until the coordinator is gone."""
    coordinator = multiprocessing.parent_process().pid
    try:
        worker = _HostWorker(ex, index, workers, arena, fabric)
        while True:
            try:
                cmd = cmd_q.get(timeout=LIVENESS_POLL_S)
            except queue_module.Empty:
                if os.getppid() != coordinator:
                    break
                continue
            if cmd[0] == "stop":
                report_q.put(("done", index, worker.final_report()))
                break
            report_q.put(("round", index, worker.run_round()))
    except BaseException:
        report_q.put(("error", index, traceback.format_exc()))
    finally:
        if os.getppid() != coordinator:
            # Orphaned: nobody will read a report, so do not let the
            # queue's feeder thread hold the exit.
            report_q.cancel_join_thread()
