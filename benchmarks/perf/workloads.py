"""The five benchmark workloads and the measurement of one of them.

Each workload is one complete job — ``repro.systems.run_app`` on a graph
generated from the seed — repeated in this process with tracing off,
verified once against the single-machine oracle, and (on request)
repeated again under :class:`layers.LayerTracer` for the per-layer
numbers.  Only canonical public API and canonical app names are used, so
the harness survives the refactors it is meant to judge.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from layers import (
    ROUND_SPANS,
    WRAP_TABLE,
    LayerTracer,
    aggregate,
    round_percentiles,
    split_run_residue,
)

from repro.core.metadata import MetadataMode
from repro.graph.generators import grid_graph, kronecker, rmat
from repro.systems import run_app
from repro.verify import verify_run

#: ``--quick`` shrinks every graph by this many powers of two.
QUICK_SCALE_DELTA = -3

TIMED = ("setup_s", "solve_s", "total_s", "cpu_s")


def _grid_side(delta: int) -> int:
    return 1 << (9 + delta)


def _grid_source(seed: int, delta: int) -> int:
    """A seed-chosen bfs source with a fixed eccentricity.

    Every node 22 steps from its nearest corner sees the far corner at
    the same distance, so the round count (and the p99 sample count)
    does not depend on the seed while the wavefront's path through the
    host blocks does.
    """
    side = _grid_side(delta)
    near = np.minimum(np.arange(side), side - 1 - np.arange(side))
    candidates = np.flatnonzero(near[:, None] + near[None, :] == 22)
    return int(candidates[np.random.default_rng(seed).integers(len(candidates))])


@dataclass(frozen=True)
class Workload:
    """One named input/system/app/policy/runtime combination."""

    name: str
    why: str
    graph: Callable[[int, int], object]  # (seed, scale delta) -> EdgeList
    system: str
    app: str
    policy: str
    hosts: int
    runtime: str = "simulated"
    workers: Optional[int] = None
    source: Optional[Callable[[int, int], int]] = None
    params: Dict = field(default_factory=dict)
    #: Round count the iteration cap must produce (None = to convergence).
    rounds: Optional[int] = None


WORKLOADS = (
    Workload(
        "pr_dense",
        "bandwidth regime: all nodes active every round, reduce and broadcast; "
        "kernels and sync encode/decode/apply dominate",
        lambda seed, delta: rmat(17 + delta, 16, seed),
        "d-galois", "pr", "cvc", 8,
        params={"max_iterations": 50, "tolerance": 1e-12},
        rounds=50,
    ),
    Workload(
        "bfs_sparse",
        "latency regime: ~1000 near-empty rounds on a grid; per-round fixed "
        "overhead dominates, payload bytes and kernels are negligible",
        lambda seed, delta: grid_graph(_grid_side(delta), _grid_side(delta)),
        "d-ligra", "bfs", "oec", 8,
        source=_grid_source,
    ),
    Workload(
        "cc_setup",
        "construction regime: symmetrize, partition build and memoization "
        "exchange dwarf a 4-5 round solve; setup_s is the headline",
        lambda seed, delta: kronecker(17 + delta, 16, seed),
        "d-galois", "cc", "hvc", 8,
    ),
    Workload(
        "pr_process",
        "process runtime at one worker: fork, shm export and pickled queue "
        "frames are the only difference from an in-process run",
        lambda seed, delta: rmat(17 + delta, 16, seed),
        "d-galois", "pr", "oec", 4,
        runtime="process", workers=1,
        params={"max_iterations": 40, "tolerance": 1e-12},
        rounds=40,
    ),
    Workload(
        "featprop_wide",
        "wide (n, 32) rows, broadcast-only pull, delta-compressed wire path "
        "and feature kernels: the same sync layers used differently",
        lambda seed, delta: rmat(14 + delta, 16, seed),
        "d-galois", "featprop", "iec", 8,
        params={"feature_dim": 32, "feature_rounds": 6, "compression": "delta"},
        rounds=6,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def _cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )


def run_job(wl: Workload, edges, source: Optional[int], **override):
    """One complete job (graph generation excluded): result and timings."""
    options = {"runtime": wl.runtime, "workers": wl.workers, **override}
    gc.collect()
    cpu_start = _cpu_seconds()
    start = time.perf_counter()
    result = run_app(
        wl.system, wl.app, edges, wl.hosts,
        policy=wl.policy, source=source, **options, **wl.params,
    )
    total = time.perf_counter() - start
    cpu = _cpu_seconds() - cpu_start
    timings = {
        "setup_s": total - result.wall_rounds_s,
        "solve_s": result.wall_rounds_s,
        "total_s": total,
        "cpu_s": cpu,
        "started": start,
    }
    return result, timings


def counters(result) -> Dict[str, float]:
    """The exact, seed-determined quantities of one run."""
    return {
        "comm_bytes": result.communication_volume,
        "comm_messages": result.communication_messages,
        "construction_bytes": result.construction_bytes,
        "rounds": result.num_rounds,
        "sim_time_s": result.total_time,
    }


def _peak_rss_mb() -> float:
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


#: What the yardstick takes on this class of machine when nothing
#: disturbs it.  It only fixes the scale: parent and change are measured
#: against the same constant.
YARDSTICK_QUIET_S = 0.0068

_YARD_ROWS = np.random.default_rng(0).random(4096)
_YARD_STREAM = np.random.default_rng(1).random(1 << 20)
_YARD_COPY = np.empty_like(_YARD_STREAM)


def yardstick() -> Tuple[float, float, float]:
    """Time three fixed pieces of work: interpreter, cache and memory bound.

    The machine's speed drifts by a third over minutes (README,
    "Noise"), so each run measures it with this yardstick beside every
    repeat and reports its timings at the yardstick's undisturbed speed.
    """
    clock = time.perf_counter
    # Untimed first pass: how much of the yardstick's memory the job
    # before it left in the caches says something about that job, not
    # about the machine.
    np.copyto(_YARD_COPY, _YARD_STREAM)
    start = clock()
    sum(i * i for i in range(60000))
    interpreted = clock()
    for _ in range(100):
        np.sort(_YARD_ROWS)
    sorted_ = clock()
    np.copyto(_YARD_COPY, _YARD_STREAM)
    np.multiply(_YARD_STREAM, 0.5, out=_YARD_COPY)
    return interpreted - start, sorted_ - interpreted, clock() - sorted_


def machine_slowdown(yards: List[Tuple[float, ...]]) -> float:
    """Undisturbed yardstick of this run over its reference: > 1 = slow.

    The same estimator as the job's: the fastest instance of each piece,
    summed, over as many samples as the job had repeats.
    """
    return sum(min(piece) for piece in zip(*yards)) / YARDSTICK_QUIET_S


def pin_to_one_cpu() -> set:
    """Pin this process (and what it forks) to one CPU; returns the old set.

    For the process runtime at one worker.  Coordinator and worker
    strictly alternate, so one CPU loses nothing (measured: 0.94 s
    pinned or not, on a quiet box) — but spread over the two shared
    vCPUs every hand-over is a cross-CPU wake-up, whose cost the host's
    load decides: the solve sat at 1.05-1.25 s for minutes on end while
    the same job pinned stayed at 0.85-0.99 s.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    return allowed


class Measurement:
    """Runs one workload's operations and tallies attempted/failed."""

    def __init__(self, wl: Workload, seed: int, quick: bool) -> None:
        self.wl = wl
        self.process = wl.runtime == "process"
        self.all_cpus = pin_to_one_cpu() if self.process else None
        delta = QUICK_SCALE_DELTA if quick else 0
        self.edges = wl.graph(seed, delta)
        self.source = wl.source(seed, delta) if wl.source else None
        self.attempted = 0
        self.failed = 0
        self.reference: Optional[Dict[str, float]] = None
        self.warnings: List[str] = []
        self.last_result = None

    def fail(self, why: str) -> None:
        self.failed += 1
        self.warnings.append(f"{self.wl.name}: {why}")

    def job(self, **override):
        """One counted job; returns (result, timings) or None on failure."""
        self.attempted += 1
        try:
            result, timings = run_job(self.wl, self.edges, self.source, **override)
        except Exception:  # one failed op must not lose the other repeats
            traceback.print_exc()
            self.fail("job raised")
            return None
        seen = counters(result)
        if self.reference is None:
            self.reference = seen
        if not result.converged:
            self.fail("did not converge")
        elif self.wl.rounds is not None and result.num_rounds != self.wl.rounds:
            self.fail(f"ran {result.num_rounds} rounds, expected {self.wl.rounds}")
        elif seen != self.reference:
            self.fail(f"exact counters moved between repeats: {seen} != {self.reference}")
        else:
            return result, timings
        return None

    def repeat(self, min_repeats: int, seconds: float) -> List:
        """Jobs until the repeat floor and the time budget are met.

        Returns ``(timings, piece events)`` per good job, and the
        machine's slowdown while they ran.  Only the
        coarse piece marks are installed (a clock pair per round, per
        host compute step and per set-up call: < 0.5 % of any workload),
        never the layer table.  Only the newest result stays alive (for
        :meth:`verify`), so peak RSS is that of one job, not the series.
        """
        samples = []
        yards = [yardstick()]
        deadline = time.perf_counter() + seconds
        runs = 0
        with LayerTracer(self.process, marks_only=True) as marks:
            while runs < min_repeats or time.perf_counter() < deadline:
                runs += 1
                self.last_result = None
                marks.take_spans()
                outcome = self.job()
                if outcome is not None:
                    self.last_result, timings = outcome
                    samples.append((timings, _piece_events(marks.take_spans(), timings)))
                yards.append(yardstick())
        return samples, machine_slowdown(yards)

    def verify(self) -> None:
        """Check the last good result against the single-machine oracle."""
        self.attempted += 1
        if self.last_result is None:
            self.fail("no successful run to verify")
            return
        try:
            check = verify_run(self.last_result, self.edges, raise_on_mismatch=False)
        except Exception:
            traceback.print_exc()
            self.fail("verification raised")
            return
        if not check.matched:
            self.fail(f"oracle mismatch: {check.detail}")


def _piece_events(spans, timings) -> Tuple[np.ndarray, Optional[Tuple[int, int]]]:
    """One job cut into pieces: event times, and which pieces are the solve.

    Every mark's start and end is an event; consecutive events bound a
    piece, so the pieces tile the job.  The solve is first round start
    to last round end (``None`` when no round was marked).
    """
    started = timings["started"]
    events = np.sort(
        np.array([started, started + timings["total_s"]] + [t for s in spans for t in s[1:3]])
    )
    rounds = [s for s in spans if s[0] in ROUND_SPANS]
    if not rounds:
        return events, None
    first, last = np.searchsorted(events, [rounds[0][1], rounds[-1][2]])
    return events, (int(first), int(last))


def _quiet_timings(samples: List) -> Optional[Dict[str, float]]:
    """Piecewise-minimum estimate of the undisturbed job (README, "Noise").

    A fixed seed makes every repeat execute the same sequence of marked
    calls, so piece *i* is the same work in every repeat and its fastest
    instance is its undisturbed cost; the job is the sum of those.
    ``None`` when the repeats do not line up (the caller then falls back
    to the fastest whole repeat).
    """
    events = [ev for _, (ev, _) in samples]
    solve = samples[0][1][1]
    if solve is None or len({len(ev) for ev in events}) != 1:
        return None
    if any(span != solve for _, (_, span) in samples):
        return None
    pieces = np.diff(np.array(events), axis=1).min(axis=0)
    total = float(pieces.sum())
    solve_s = float(pieces[solve[0]:solve[1]].sum())
    # Interference stretches CPU and wall time alike, so the busy share
    # (CPU seconds per wall second, children included) is steady where
    # neither clock is; it carries over to the undisturbed wall.
    busy = statistics.median(t["cpu_s"] / t["total_s"] for t, _ in samples)
    return {
        "setup_s": total - solve_s,
        "solve_s": solve_s,
        "total_s": total,
        "cpu_s": total * busy,
    }


def _summary(
    values: List[float], quiet: Optional[float] = None, slowdown: float = 1.0
) -> Dict[str, float]:
    """One metric's whole-job samples and its reported, gated ``value``.

    Interference on this shared box only ever adds time, so ``quiet``
    defaults to the fastest sample; wall timings pass the piecewise
    minimum instead, and the machine's ``slowdown`` to take out of it.
    Quiet, median, max and the samples stay beside the value, as the
    clock read them, so a change that makes only some repeats slow
    still shows.
    """
    if quiet is None:
        quiet = min(values)
    return {
        "value": quiet / slowdown,
        "quiet": quiet,
        "median": statistics.median(values),
        "max": max(values),
        "n": len(values),
        "samples": list(values),
    }


def measure(
    wl: Workload, seed: int, seconds: float, repeats: int, trace: bool, quick: bool
) -> Dict:
    """Measure one workload; returns its report (see README, "Output")."""
    m = Measurement(wl, seed, quick)
    run_job(wl, m.edges, m.source)  # warm-up: imports, allocator, page cache
    budget = seconds / 2 if trace else seconds
    runs, slowdown = m.repeat(repeats, budget)
    peak_rss_mb = _peak_rss_mb()  # before the oracle inflates the high-water mark
    m.verify()
    report: Dict = {
        "workload": wl.name,
        "seed": seed,
        "quick": quick,
        "nodes": m.edges.num_nodes,
        "edges": m.edges.num_edges,
    }
    if runs:
        quiet = _quiet_timings(runs)
        if quiet is None:
            quiet = {}
            m.warnings.append(
                f"{wl.name}: repeats did not split into the same pieces; "
                "timings are the fastest whole repeat"
            )
        report["pieces"] = len(runs[0][1][0]) - 1 if quiet else 1
        report["machine_slowdown"] = slowdown
        end_to_end = {
            name: _summary([timings[name] for timings, _ in runs], quiet.get(name), slowdown)
            for name in TIMED
        }
        end_to_end["peak_rss_mb"] = _summary([peak_rss_mb])
        for name, value in m.reference.items():
            end_to_end[name] = _summary([value])
        report["end_to_end"] = end_to_end
        if trace:
            report["per_layer"] = _trace(m, end_to_end, max(1, repeats // 2), budget)
    end_to_end = report.setdefault("end_to_end", {})
    end_to_end["error_rate"] = _summary([m.failed / m.attempted])
    report["attempted"] = m.attempted
    report["failed"] = m.failed
    report["warnings"] = m.warnings
    return report


def _trace(m: Measurement, end_to_end: Dict, repeats: int, seconds: float) -> Dict:
    """Per-layer metrics of the fastest of the traced runs."""
    wl = m.wl
    per_run = []
    with LayerTracer(m.process) as tracer:
        deadline = time.perf_counter() + seconds
        while len(per_run) < repeats or time.perf_counter() < deadline:
            tracer.take_spans()
            outcome = m.job()
            if outcome is None:
                break
            per_run.append(_layer_metrics(m, tracer, *outcome))
    for span in tracer.unresolved:
        m.warnings.append(f"{wl.name}: wrap target for {span} no longer resolves")
    for span in sorted(tracer.amount_errors):
        m.warnings.append(f"{wl.name}: could not count bytes/edges of {span}")
    if not per_run:
        return {}
    # The fastest traced run, whole: its self times sum to its own wall.
    layers = min(per_run, key=lambda run: run["traced_total_s"])
    layers["trace.overhead_pct"] = 100.0 * (
        layers.pop("traced_total_s") / min(end_to_end["total_s"]["samples"]) - 1.0
    )
    if layers["trace.coverage_pct"] < 98.0:
        m.warnings.append(
            f"{wl.name}: layer self times cover only "
            f"{layers['trace.coverage_pct']:.1f}% of the traced wall"
        )
    # Process runtime only: the same job in-process, and at two workers
    # (three processes on two shared cores: informational, never gated).
    layers["parallel.over_inproc_ratio"] = None
    layers["parallel.speedup_2w"] = None
    if m.process:
        solve = min(end_to_end["solve_s"]["samples"])
        inproc = m.job(runtime="simulated", workers=None)
        if inproc is not None:
            layers["parallel.over_inproc_ratio"] = solve / inproc[1]["solve_s"]
        os.sched_setaffinity(0, m.all_cpus)  # two workers want two CPUs
        two_workers = m.job(workers=2)
        if two_workers is not None:
            layers["parallel.speedup_2w"] = solve / two_workers[1]["solve_s"]
    return layers


_SUBSTRATE = tuple(
    f"substrate.{part}"
    for part in ("stage_reduce", "stage_broadcast", "flush", "receive_reduce", "receive_broadcast")
)

#: Layer metric -> (span aggregate, spans summed).  Derived metrics
#: (rates, shares, residues) are computed in :func:`_layer_metrics`.
SPAN_METRICS = {
    "graph.prepare_s": ("self_s", ("graph.prepare",)),
    "partition.assign_s": ("self_s", ("partition.assign",)),
    "partition.local_build_s": ("self_s", ("partition.local_build",)),
    "partition.build_s": ("self_s", ("partition.build",)),
    "memoization.exchange_s": ("self_s", ("memoization.setup", "memoization.exchange")),
    "engine.compute_s": ("self_s", ("engine.compute",)),
    "engine.calls": ("calls", ("engine.compute",)),
    "engine.edges_processed": ("amount", ("engine.compute",)),
    "features.kernel_s": ("self_s", ("features.kernel",)),
    **{f"{span}_s": ("self_s", (span,)) for span in _SUBSTRATE},
    "substrate.calls": ("calls", _SUBSTRATE),
    "codec.encode_s": ("self_s", ("codec.encode",)),
    "codec.decode_s": ("self_s", ("codec.decode",)),
    "codec.calls": ("calls", ("codec.encode", "codec.decode")),
    "codec.payload_bytes": ("amount", ("codec.encode",)),
    "serialization.encode_s": ("self_s", ("serialization.encode",)),
    "serialization.decode_s": ("self_s", ("serialization.decode",)),
    "frame.encode_s": ("self_s", ("frame.encode",)),
    "frame.decode_s": ("self_s", ("frame.decode",)),
    "frame.calls": ("calls", ("frame.encode", "frame.decode")),
    "frame.overhead_bytes": ("amount", ("frame.encode",)),
    "transport.send_s": ("self_s", ("transport.send",)),
    "transport.receive_s": ("self_s", ("transport.receive",)),
    "transport.end_round_s": ("self_s", ("transport.end_round",)),
    "transport.messages": ("calls", ("transport.send",)),
    "transport.bytes": ("amount", ("transport.send",)),
    "parallel.start_s": ("self_s", ("parallel.start",)),
    "parallel.round_s": ("self_s", ("parallel.round",)),
    "parallel.finish_s": ("self_s", ("parallel.finish",)),
}


def _layer_metrics(m: Measurement, tracer: LayerTracer, result, timings) -> Dict:
    """One traced run's layer metrics (``None`` = layer not observable)."""
    spans = tracer.take_spans()
    totals = aggregate(spans)
    blind = set(tracer.unresolved)
    if m.wl.runtime == "process":
        blind.update(t.span for t in WRAP_TABLE if t.in_worker)

    def pick(kind: str, names) -> Optional[float]:
        if any(name in blind for name in names):
            return None
        return sum(getattr(totals[n], kind) for n in names if n in totals)

    def mega_per_s(amount: Optional[float], span: str) -> Optional[float]:
        busy = pick("inclusive_s", (span,))
        if amount is None or busy is None:
            return None
        return amount / busy / 1e6 if busy else 0.0

    out = {name: pick(kind, names) for name, (kind, names) in SPAN_METRICS.items()}
    out["partition.medges_per_s"] = mega_per_s(m.edges.num_edges, "partition.build")
    out["partition.replication_factor"] = result.replication_factor
    out["memoization.bytes"] = result.construction_bytes
    out["engine.medges_per_s"] = mega_per_s(out["engine.edges_processed"], "engine.compute")
    out["codec.encode_mb_per_s"] = mega_per_s(out["codec.payload_bytes"], "codec.encode")
    out["codec.decode_mb_per_s"] = mega_per_s(out["codec.payload_bytes"], "codec.decode")
    sent = sum(result.mode_counts.values())
    for mode in ("FULL", "BITVEC", "INDICES", "EMPTY"):
        out[f"metadata.{mode.lower()}"] = result.mode_counts.get(MetadataMode[mode], 0)
    out["metadata.empty_share"] = out["metadata.empty"] / sent if sent else 0.0
    wire = result.communication_volume + result.construction_bytes
    if out["transport.bytes"] not in (None, wire):
        m.fail(f"transport carried {out['transport.bytes']} bytes, result reports {wire}")
    setup_residue, loop_residue = split_run_residue(spans)
    out["runtime.setup_residue_s"] = setup_residue
    out["runtime.driver_residue_s"] = loop_residue + (pick("self_s", ("runtime.round",)) or 0.0)
    out["runtime.round_ms_p50"], out["runtime.round_ms_p99"] = round_percentiles(spans)
    out["runtime.rounds"] = result.num_rounds
    covered = sum(entry.self_s for entry in totals.values())
    out["trace.coverage_pct"] = 100.0 * covered / timings["total_s"]
    out["traced_total_s"] = timings["total_s"]
    return out
