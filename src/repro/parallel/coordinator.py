"""The coordinator of the multiprocess host runtime (``--runtime process``).

:class:`ProcessRunner` is the process-backed
:class:`~repro.parallel.runner.RoundData` producer.  On :meth:`start` it

1. lays every host's ndarray state entries into one anonymous shared
   mapping, the state arena (:func:`~repro.parallel.rings.shared_arrays`);
2. lays out a :class:`~repro.parallel.rings.RingFabric` — the second
   mapping, its slots sized from the executor's bound sync plans;
3. forks ``workers`` processes (``fork`` start method: the executor is
   inherited copy-on-write — its partitioned graph, address books,
   engines, app and non-array state — never pickled or copied; the two
   mappings are inherited shared), each owning the hosts
   ``{h : h % workers == w}``.

Per round it broadcasts a command, collects every worker's raw report,
and *replays* the workers' per-phase ``(src, dst, nbytes)`` traffic
records into the executor's own
:class:`~repro.network.stats.CommStats` — in phase order, host-ascending
within each phase, FIFO within a host, which is exactly the order the
simulated runtime records in.  The alpha-beta "cluster time" and every
byte counter are therefore bitwise identical to ``--runtime simulated``;
the wall clock (the executor's ``wall_rounds_s``) is where real
parallelism shows up.

The runtime is deliberately restricted: the "process runtime" rows of
:data:`repro.options.REFUSALS` need the coordinator to observe or replace
host state mid-run, which only the simulated runtime can do.  They are
refused by name when the run is planned.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import time
import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.serialization import FRAME_OVERHEAD
from repro.errors import ExecutionError
from repro.partition.base import allowed_cpus
from repro.parallel.rings import LIVENESS_POLL_S, RingFabric, shared_arrays
from repro.parallel.runner import RoundData
from repro.parallel.worker import worker_main
from repro.resilience.transport import MAX_TRANSMISSIONS
from repro.runtime.round import close_round

#: Seconds the coordinator waits for a round's worker reports.
DEFAULT_ROUND_TIMEOUT_S = 600.0


def resolve_workers(workers: Optional[int], num_hosts: int) -> int:
    """Validate and clamp a worker count against the cluster size."""
    if workers is None:
        workers = min(num_hosts, allowed_cpus())
    if workers < 1:
        raise ExecutionError(f"workers must be >= 1, got {workers}")
    # More workers than hosts would fork idle processes whose empty
    # phase reports still cost a barrier round-trip each round.
    return min(workers, num_hosts)


def _stop_fleet(procs: List, queues: List) -> None:
    """Terminate and reap a fleet's workers, then close its queues.

    A :class:`ProcessRunner`'s finalizer: it runs once — at ``finish``,
    at ``abort``, or when the runner is freed with its fleet still up —
    and holds no link to the runner.
    """
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    for proc in procs:
        proc.join(timeout=10.0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=10.0)
    for q in queues:
        q.cancel_join_thread()
        q.close()


class ProcessRunner:
    """Real parallel execution: one forked worker per host group.

    The fleet lives exactly as long as the runner: its owner (the
    executor) dropping an unfinished run stops the workers.
    """

    def __init__(self) -> None:
        self.num_hosts = 0
        self.workers = 0
        #: ``(host, key) -> view``: the hosts' ndarray state, shared.
        self.arena: Optional[Dict[Tuple[int, str], np.ndarray]] = None
        self.fabric: Optional[RingFabric] = None
        self._procs: List = []
        self._cmd_qs: List = []
        self._report_q = None
        #: Stops the fleet (:func:`_stop_fleet`); ``None`` until :meth:`start`.
        self._stop: Optional[weakref.finalize] = None

    # -- lifecycle ----------------------------------------------------------

    def start(self, ex) -> None:
        """Lay out the state arena and the rings, then fork the fleet."""
        self.num_hosts = ex.partitioned.num_hosts
        self.workers = resolve_workers(ex.workers, self.num_hosts)
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            raise ExecutionError(
                "the process runtime needs the 'fork' start method "
                "(POSIX only)"
            ) from None
        arrays = {
            (h, key): value
            for h, state in enumerate(ex.states)
            for key, value in state.items()
            if isinstance(value, np.ndarray)
        }
        self.arena = shared_arrays(
            {name: (value.shape, value.dtype) for name, value in arrays.items()}
        )
        for name, value in arrays.items():
            self.arena[name][...] = value
        # Slots for the two phases that can be in flight per ring (DESIGN
        # §12); the fault layer frames a message once more and hands over
        # at most MAX_TRANSMISSIONS copies of it.
        copies, framing = 2, 0
        if ex.fault_injector is not None:
            copies, framing = 2 * MAX_TRANSMISSIONS, FRAME_OVERHEAD
        self.fabric = RingFabric(
            self.num_hosts,
            {
                (sub.host, peer): (copies, nbytes + framing)
                for sub in ex.substrates
                for peer, nbytes in sub.max_send_bytes().items()
            },
            ctx,
        )
        self._report_q = ctx.Queue()
        self._cmd_qs = [ctx.Queue() for _ in range(self.workers)]
        self._stop = weakref.finalize(
            self, _stop_fleet, self._procs, [*self._cmd_qs, self._report_q]
        )
        for w in range(self.workers):
            # Under ``fork`` the arguments are inherited, never pickled.
            proc = ctx.Process(
                target=worker_main,
                args=(
                    ex, w, self.workers, self.arena, self.fabric,
                    self._cmd_qs[w], self._report_q,
                ),
                daemon=True,
            )
            proc.start()
            self._procs.append(proc)

    # -- per-round protocol -------------------------------------------------

    def run_round(self, ex, round_index: int) -> RoundData:
        """Broadcast one round command; merge the workers' reports."""
        if not self._running():
            raise ExecutionError(
                "the process runtime is single-shot: its workers already "
                "stopped — construct a new executor to run again"
            )
        for q in self._cmd_qs:
            q.put(("round", round_index))
        reports = self._collect("round")
        num_hosts = self.num_hosts
        comp_times = [0.0] * num_hosts
        active_total = 0
        fault_bytes = ex.transport.take_round_fault_bytes()
        residual_sum: Optional[float] = None
        translation_deltas: Dict[int, int] = {}
        residuals: Dict[int, float] = {}
        for w in range(self.workers):
            report = reports[w]
            for h, comp in report["comp_times"].items():
                comp_times[h] = comp
            for h, count in report["active"].items():
                active_total += count
            if report["residuals"] is not None:
                residuals.update(report["residuals"])
            translation_deltas.update(report["translation_deltas"])
            fault_bytes += report["fault_bytes"]
        if residuals:
            # Host-ascending accumulation: the simulated runtime's
            # ``sum(local_residual(state) for state in states)`` order.
            residual_sum = sum(residuals[h] for h in range(num_hosts))
        self._replay_traffic(ex, [reports[w]["records"] for w in range(self.workers)])
        traffic, comm_time = close_round(
            ex.transport, ex.engines, ex.cost_model, translation_deltas
        )
        return RoundData(
            comp_times=comp_times,
            comm_time=comm_time,
            traffic=traffic,
            phase_records=[],
            translation_deltas=translation_deltas,
            active=active_total,
            fault_bytes=fault_bytes,
            residual_sum=residual_sum,
        )

    def _replay_traffic(self, ex, all_records: List[Dict]) -> None:
        """Re-record the workers' traffic in the simulated runtime's order.

        Within a phase the simulated executor records host-ascending
        (hosts flush in ``h`` order), FIFO within a host; each host is
        owned by exactly one worker, so merging the per-worker phase
        buckets by ascending source reproduces that order exactly —
        including the float-accumulation order of the cost model.
        """
        stats = ex.transport.stats
        phases = sorted({phase for rec in all_records for phase in rec})
        for phase in phases:
            merged: Dict[int, List] = {}
            for rec in all_records:
                merged.update(rec.get(phase, {}))
            for src in sorted(merged):
                for dst, nbytes in merged[src]:
                    stats.record(src, dst, nbytes)

    def _collect(self, kind: str) -> Dict[int, Dict]:
        """Gather one report of ``kind`` from every worker, or die loudly."""
        reports: Dict[int, Dict] = {}
        deadline = time.monotonic() + DEFAULT_ROUND_TIMEOUT_S
        while len(reports) < self.workers:
            try:
                msg = self._report_q.get(timeout=LIVENESS_POLL_S)
            except queue_module.Empty:
                dead = [
                    w
                    for w, proc in enumerate(self._procs)
                    if not proc.is_alive()
                ]
                if dead:
                    raise ExecutionError(
                        f"worker(s) {dead} died without reporting "
                        f"(exit codes: "
                        f"{[self._procs[w].exitcode for w in dead]})"
                    ) from None
                if time.monotonic() > deadline:
                    raise ExecutionError(
                        f"timed out after {DEFAULT_ROUND_TIMEOUT_S:.0f}s "
                        f"waiting for worker reports "
                        f"({sorted(reports)} of {self.workers} arrived)"
                    ) from None
                continue
            if msg[0] == "error":
                raise ExecutionError(
                    f"worker {msg[1]} failed:\n{msg[2]}"
                )
            if msg[0] != kind:
                raise ExecutionError(
                    f"protocol violation: expected a {kind!r} report, "
                    f"worker {msg[1]} sent {msg[0]!r}"
                )
            reports[msg[1]] = msg[2]
        return reports

    # -- teardown -----------------------------------------------------------

    def _running(self) -> bool:
        return self._stop is not None and self._stop.alive

    def finish(self, ex) -> None:
        """Stop the fleet; merge final state and stats into the executor."""
        if not self._running():
            return
        try:
            for q in self._cmd_qs:
                q.put(("stop",))
            finals = self._collect("done")
            # The executor's state dicts still hold the pre-run arrays
            # (the arena copied them at start): take the arena's arrays,
            # which hold the workers' final values, then overlay every
            # entry a worker reported as divergent (mutated scalars,
            # reassigned arrays).
            for (h, key), view in self.arena.items():
                ex.states[h][key] = view
            for h in range(self.num_hosts):
                ex.states[h].update(finals[h % self.workers]["divergent"][h])
            for w in range(self.workers):
                final = finals[w]
                # The substrates that did the work lived in the worker.
                for stats in final["substrate_stats"]:
                    ex.retired_stats.absorb(stats)
                if final["faults"] is not None:
                    ex.fault_stats.absorb(final["faults"])
            for proc in self._procs:
                proc.join(timeout=10.0)  # a stopped worker exits on its own
        finally:
            self.abort()

    def abort(self) -> None:
        """Stop the fleet (a no-op once stopped)."""
        if self._stop is not None:
            self._stop()
        # The kernel frees each mapping's pages with its last reference.
        self.arena = self.fabric = None
