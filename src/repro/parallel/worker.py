"""The per-process host worker of the multiprocess runtime.

:func:`worker_main` is the ``fork`` entry point.  Worker ``w`` of ``W``
owns the simulated hosts ``{h : h % W == w}``: it indexes their
partitions in the coordinator's ``PartitionedGraph`` (inherited through
``fork``), attaches the state arena (zero-copy), rebuilds its hosts'
states, fields, and Gluon substrates, then executes rounds on the
coordinator's command — or exits once the coordinator is gone.

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
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.substrate import GluonSubstrate, bind_sync_plans
from repro.parallel.rings import RingFabric, RingTransport
from repro.parallel.shm import SharedArrayStore
from repro.runtime.round import run_hosts

#: Seconds between liveness checks while a queue read waits: the
#: coordinator's for dead workers, a worker's for a dead coordinator.
LIVENESS_POLL_S = 1.0


@dataclass
class WorkerTask:
    """Everything one worker needs (inherited through ``fork``)."""

    worker_index: int
    num_workers: int
    num_hosts: int
    partitioned: object
    arena_manifest: object
    app: object
    ctx: object
    engines: List[object]
    level: object
    aggregate_comm: bool
    enable_sync: bool
    books: List[object]
    scalars: List[Dict]
    frontiers: List[Optional[np.ndarray]]
    fault_plan: Optional[object] = None
    fault_seq_base: int = 0

    @property
    def owned(self) -> List[int]:
        """The hosts this worker executes, ascending."""
        return [
            h
            for h in range(self.num_hosts)
            if h % self.num_workers == self.worker_index
        ]


class _HostWorker:
    """One worker's live state: partitions, states, fields, substrates."""

    def __init__(self, task: WorkerTask, fabric: RingFabric) -> None:
        self.task = task
        self.owned = task.owned
        self.arena = SharedArrayStore.attach(task.arena_manifest)
        self.parts = {h: task.partitioned.partitions[h] for h in self.owned}
        self.rings = RingTransport(fabric)
        self.transport = self.rings
        if task.fault_plan is not None:
            from repro.resilience.faults import FaultInjector
            from repro.resilience.transport import FaultyTransport

            self.transport = FaultyTransport(
                task.num_hosts,
                FaultInjector(task.fault_plan, seq_base=task.fault_seq_base),
                inner=self.rings,
            )
        self.states: Dict[int, Dict] = {}
        for h in self.owned:
            state = dict(task.scalars[h])
            prefix = f"s{h}/"
            for name, view in self.arena.views.items():
                if name.startswith(prefix):
                    state[name[len(prefix) :]] = view
            self.states[h] = state
        self.fields = {
            h: task.app.make_fields(self.parts[h], self.states[h])
            for h in self.owned
        }
        self.substrates: Dict[int, GluonSubstrate] = {}
        if task.enable_sync:
            self.substrates = {
                h: GluonSubstrate(
                    self.parts[h],
                    self.transport,
                    task.level,
                    task.books[h],
                    aggregate=task.aggregate_comm,
                )
                for h in self.owned
            }
            # All books, not just the owned hosts': every worker must
            # reach the same verdict on which phases are dead.
            bind_sync_plans(self.owned, self.substrates, self.fields, task.books)
        self.frontiers = {h: task.frontiers[h] for h in self.owned}

    # -- one BSP round ------------------------------------------------------

    def run_round(self) -> Dict:
        task = self.task
        app = task.app
        comp_times, next_frontiers, translation_deltas = run_hosts(
            self.owned, task.engines, app, self.parts, self.states,
            self.fields, self.frontiers, self.substrates,
            end_phase=self.rings.finish_phase,
        )
        active = {
            h: int(np.count_nonzero(next_frontiers[h])) for h in self.owned
        }
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
        """State divergences and substrate stats, shipped once at stop."""
        divergent = {}
        for h in self.owned:
            prefix = f"s{h}/"
            entries = {}
            for key, value in self.states[h].items():
                view = self.arena.views.get(prefix + key)
                if isinstance(value, np.ndarray) and value is view:
                    continue
                entries[key] = value
            divergent[h] = entries
        substrate_stats = {
            h: (
                self.substrates[h].stats.translations,
                dict(self.substrates[h].stats.mode_counts),
            )
            for h in self.substrates
        }
        faults = None
        if self.transport is not self.rings:
            f = self.transport.faults
            faults = {
                "dropped": f.dropped,
                "duplicated": f.duplicated,
                "corrupted": f.corrupted,
                "checksum_failures": f.checksum_failures,
                "duplicates_discarded": f.duplicates_discarded,
                "fault_bytes": f.fault_bytes,
                "framing_bytes": f.framing_bytes,
            }
        return {
            "divergent": divergent,
            "substrate_stats": substrate_stats,
            "faults": faults,
        }

    def close(self) -> None:
        self.arena.close()


def worker_main(task: WorkerTask, fabric: RingFabric, cmd_q, report_q) -> None:
    """Process entry point: attach, then serve round commands until stop."""
    coordinator = multiprocessing.parent_process().pid
    worker = None
    try:
        worker = _HostWorker(task, fabric)
        while True:
            try:
                cmd = cmd_q.get(timeout=LIVENESS_POLL_S)
            except queue_module.Empty:
                if os.getppid() != coordinator:
                    # Orphaned: nobody will read a report, so do not let
                    # the queue's feeder thread hold the exit.
                    report_q.cancel_join_thread()
                    break
                continue
            if cmd[0] == "stop":
                report_q.put(
                    ("done", task.worker_index, worker.final_report())
                )
                break
            report = worker.run_round()
            report_q.put(("round", task.worker_index, report))
    except BaseException:
        report_q.put(("error", task.worker_index, traceback.format_exc()))
    finally:
        if worker is not None:
            worker.close()
