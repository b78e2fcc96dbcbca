#!/usr/bin/env python
"""Benchmark harness: run a fixed app x policy x hosts matrix and emit
``BENCH_<date>.json`` — the perf trajectory the repo tracks over time.

Each cell runs with observability enabled, so every benchmark also
exercises the tracer, the metrics registry, and (in smoke mode) the
Chrome-trace/metrics exporters, and asserts that the published byte
counters reconcile exactly with the transport's accounting.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py            # full matrix
    PYTHONPATH=src python benchmarks/run_bench.py --smoke    # CI-sized

The emitted JSON records, per cell: wall-clock seconds (measured), the
run's simulated execution time (alpha-beta model), total communication
bytes, and round count — the three axes (§6) any perf PR must not
regress.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from datetime import date
from pathlib import Path
from typing import List, Optional

from repro import load_workload, run_app
from repro.observability import Observability, write_chrome_trace, write_metrics

#: The default matrix: the paper's three push-style analytics plus
#: pagerank, over the two partition-policy families, at three scales.
DEFAULT_APPS = ("bfs", "sssp", "cc", "pr")
DEFAULT_POLICIES = ("oec", "cvc")
DEFAULT_HOSTS = (2, 4, 8)

#: Smoke mode: one fast app over both policies on a tiny graph — enough
#: to exercise every export path on every CI push.
SMOKE_APPS = ("bfs",)
SMOKE_HOSTS = (2, 4)
SMOKE_SCALE_DELTA = -5


def bench_cell(
    app: str,
    policy: str,
    hosts: int,
    workload: str,
    scale_delta: int,
    export_dir: Optional[Path] = None,
) -> dict:
    """Run one matrix cell and return its result row."""
    edges = load_workload(workload, scale_delta)
    obs = Observability()
    started = time.perf_counter()
    result = run_app(
        "d-galois", app, edges, num_hosts=hosts, policy=policy,
        observability=obs,
    )
    wall_s = time.perf_counter() - started
    stats = result.executor.transport.stats
    reconciled = (
        obs.metrics.counter_total("bytes_sent_total") == stats.total_bytes
    )
    if not reconciled:
        raise AssertionError(
            f"{app}/{policy}/{hosts}: metrics bytes "
            f"{obs.metrics.counter_total('bytes_sent_total')} != "
            f"CommStats bytes {stats.total_bytes}"
        )
    if export_dir is not None:
        stem = f"{app}_{policy}_{hosts}h"
        write_chrome_trace(obs.tracer, export_dir / f"{stem}.trace.json")
        write_metrics(obs.metrics, export_dir / f"{stem}.metrics.json")
    return {
        "app": app,
        "policy": policy,
        "hosts": hosts,
        "wall_s": round(wall_s, 4),
        "sim_time_s": result.total_time,
        "total_bytes": result.communication_volume,
        "construction_bytes": result.construction_bytes,
        "rounds": result.num_rounds,
        "replication_factor": round(result.replication_factor, 4),
        "converged": result.converged,
        "reconciled": reconciled,
    }


def bench_service(
    workload: str,
    scale_delta: int,
    apps: tuple = ("bfs", "pr", "cc"),
    repeats: int = 3,
) -> dict:
    """Repeated-query service cell: jobs/sec cold vs warm.

    Runs one batch of jobs through a fresh :class:`JobService` (cold —
    pays partitioning and execution), then resubmits the identical batch
    ``repeats`` times against the same service (warm — served from the
    result cache).  The warm/cold throughput ratio is the payoff of
    content-addressed caching; the acceptance bar is >= 2x.
    """
    from repro.service import JobService, JobSpec, ServiceConfig

    specs = [
        JobSpec(
            app=app,
            workload=workload,
            policy=policy,
            scale_delta=scale_delta,
        )
        for app in apps
        for policy in ("oec", "cvc")
    ]
    service = JobService(ServiceConfig(max_pending=len(specs)))
    started = time.perf_counter()
    cold_results = service.run_batch(specs)
    cold_s = time.perf_counter() - started
    if not all(r.status == "ok" for r in cold_results):
        raise AssertionError("service bench: cold batch had failed jobs")
    started = time.perf_counter()
    warm_jobs = 0
    for _ in range(repeats):
        warm_results = service.run_batch(specs)
        warm_jobs += len(warm_results)
    warm_s = time.perf_counter() - started
    hits = service.stats()["jobs"]["result_cache_hits"]
    if hits != warm_jobs:
        raise AssertionError(
            f"service bench: expected {warm_jobs} result-cache hits, "
            f"got {hits}"
        )
    cold_jps = len(specs) / cold_s if cold_s > 0 else 0.0
    warm_jps = warm_jobs / warm_s if warm_s > 0 else 0.0
    return {
        "jobs": len(specs),
        "repeats": repeats,
        "cold_wall_s": round(cold_s, 4),
        "warm_wall_s": round(warm_s, 4),
        "cold_jobs_per_s": round(cold_jps, 2),
        "warm_jobs_per_s": round(warm_jps, 2),
        "speedup": round(warm_jps / cold_jps, 2) if cold_jps > 0 else 0.0,
        "result_cache_hits": hits,
    }


def bench_aggregation(
    workload: str,
    scale_delta: int,
    hosts: int = 4,
    policy: str = "cvc",
) -> dict:
    """Cross-field aggregation cell: bc with and without the channel layer.

    bc's forward sweep synchronizes two fields per phase, so per-peer
    aggregation must cut that sweep's message count by >= 2x (the
    acceptance bar); the single-field backward sweep keeps message
    parity.  Results are bitwise identical either way — only the wire
    shape and the simulated communication time differ.
    """
    edges = load_workload(workload, scale_delta)
    aggregated = run_app(
        "d-galois", "bc", edges, num_hosts=hosts, policy=policy,
    )
    ablated = run_app(
        "d-galois", "bc", edges, num_hosts=hosts, policy=policy,
        aggregate_comm=False,
    )
    agg_messages = sum(r.comm_messages for r in aggregated.rounds)
    abl_messages = sum(r.comm_messages for r in ablated.rounds)
    # The two-field (forward) rounds are exactly those where the
    # ablation sent more messages.
    sweep = [
        (agg_round, abl_round)
        for agg_round, abl_round in zip(aggregated.rounds, ablated.rounds)
        if abl_round.comm_messages != agg_round.comm_messages
    ]
    sweep_agg = sum(a.comm_messages for a, _ in sweep)
    sweep_abl = sum(b.comm_messages for _, b in sweep)
    reduction = sweep_abl / sweep_agg if sweep_agg else 0.0
    if reduction < 2.0:
        raise AssertionError(
            f"aggregation bench: two-field sweep sent {sweep_agg} "
            f"aggregated vs {sweep_abl} per-field messages "
            f"({reduction:.2f}x < 2x reduction)"
        )
    return {
        "app": "bc",
        "policy": policy,
        "hosts": hosts,
        "messages_aggregated": agg_messages,
        "messages_per_field": abl_messages,
        "two_field_messages_aggregated": sweep_agg,
        "two_field_messages_per_field": sweep_abl,
        "two_field_reduction": round(reduction, 2),
        "sim_comm_s_aggregated": sum(r.comm_time for r in aggregated.rounds),
        "sim_comm_s_per_field": sum(r.comm_time for r in ablated.rounds),
        "total_bytes_aggregated": aggregated.communication_volume,
        "total_bytes_per_field": ablated.communication_volume,
    }


def bench_parallel(
    workload: str,
    scale_delta: int,
    hosts: int = 8,
    policy: str = "oec",
    worker_counts: tuple = (1, 2, 4, 8),
    smoke: bool = False,
) -> dict:
    """Wall-clock speedup cell: pagerank over real worker processes.

    Runs pagerank once on the simulated runtime (every host round-robins
    in this process) and then on the process runtime at each worker
    count, asserting the simulated quantities — rounds, alpha-beta time,
    communication volume — stay bitwise identical while measuring the
    round loop's real wall clock.  Full mode asserts the >= 2x speedup
    bar at 4 workers vs 1; smoke mode only checks identity and records
    the numbers (CI shards and dev containers may be single-core, where
    extra workers cannot help).
    """
    edges = load_workload(workload, scale_delta)
    simulated = run_app(
        "d-galois", "pr", edges, num_hosts=hosts, policy=policy
    )
    rows: List[dict] = []
    walls = {}
    for workers in worker_counts:
        result = run_app(
            "d-galois", "pr", edges, num_hosts=hosts, policy=policy,
            runtime="process", workers=workers,
        )
        identical = (
            result.num_rounds == simulated.num_rounds
            and result.total_time == simulated.total_time
            and result.communication_volume == simulated.communication_volume
            and result.communication_messages
            == simulated.communication_messages
        )
        if not identical:
            raise AssertionError(
                f"parallel bench: process runtime at {workers} workers "
                "diverged from the simulated runtime"
            )
        walls[workers] = result.wall_rounds_s
        rows.append(
            {
                "workers": workers,
                "wall_rounds_s": round(result.wall_rounds_s, 4),
                "sim_time_s": result.total_time,
                "rounds": result.num_rounds,
                "bitwise_identical": identical,
            }
        )
    base = walls.get(worker_counts[0])
    speedup_at_4 = None
    if base and 4 in walls and walls[4] > 0:
        speedup_at_4 = round(base / walls[4], 2)
    if not smoke and speedup_at_4 is not None and speedup_at_4 < 2.0:
        raise AssertionError(
            f"parallel bench: pagerank at 4 workers is only "
            f"{speedup_at_4:.2f}x over 1 worker (bar: >= 2x)"
        )
    return {
        "app": "pr",
        "policy": policy,
        "hosts": hosts,
        "simulated_wall_rounds_s": round(simulated.wall_rounds_s, 4),
        "sim_time_s": simulated.total_time,
        "workers": rows,
        "speedup_at_4_workers": speedup_at_4,
    }


def bench_incremental(
    workload: str,
    scale_delta: int,
    hosts: int = 8,
    smoke: bool = False,
) -> dict:
    """Streaming cell: incremental recomputation vs full recompute.

    Keeps bfs (min-plus, delete+insert batches) and cc (component,
    insert-only batches — deletions on an rmat graph tear the giant
    component and honestly affect most vertices) converged across a
    mutation stream, sweeping the batch size.  Every step is verified
    bitwise against a cold recompute of the same version, the streamed
    rounds/messages are compared against the cold run's, and the warm
    partition-cache hits for untouched hosts are recorded.

    Acceptance bar (full mode): at ~1%% mutations the incremental path
    must cut the synchronization message count by >= 2x versus a cold
    recompute, and untouched hosts must hit the partition cache across
    the sweep (single-edge batches leave most hosts' inputs unchanged).
    """
    import numpy as np

    from repro.observability.metrics import MetricsRegistry
    from repro.service import ServiceCache
    from repro.streaming import StreamingSession, random_mutation_batch
    from repro.utils.rng import make_rng

    # Per-app affected-fraction sweep of (delete, insert) fractions.
    # Each row runs against a fresh session of the pristine base, so the
    # fraction -> savings curve is not confounded by earlier batches.
    # The ~1% row (marked) carries the >= 2x message-cut bar; bfs keeps
    # its 1% batch insert-heavy (inserts re-converge in O(1) rounds,
    # deletions re-derive a whole SP-DAG region), and cc is insert-only
    # (any deletion on an rmat graph tears the giant component and
    # honestly affects most vertices).
    sweeps = {
        ("bfs", "oec"): [
            (0.0002, 0.0002, False),
            (0.002, 0.008, True),
        ] + ([] if smoke else [(0.02, 0.02, False)]),
        ("sssp", "oec"): [] if smoke else [(0.005, 0.005, True)],
        ("cc", "iec"): [] if smoke else [
            (0.0, 0.0002, False), (0.0, 0.01, True),
        ],
    }
    apps = []
    total_cache_reuses = 0
    for (app, policy), sweep in sweeps.items():
        if not sweep:
            continue
        rows: List[dict] = []
        cache_reuses = 0
        cache_invalidations = 0
        for delete_fraction, insert_fraction, is_bar in sweep:
            edges = load_workload(workload, scale_delta)
            cache = ServiceCache(metrics=MetricsRegistry())
            session = StreamingSession(
                "d-galois", app, edges, hosts, policy=policy, cache=cache
            )
            base = session.run()
            rng = make_rng(1234)
            batch = random_mutation_batch(
                session.version.edges,
                rng,
                delete_fraction=delete_fraction,
                insert_fraction=insert_fraction,
            )
            step = session.apply_batch(batch)
            cold = session.cold_run()
            warm_values = session.values()
            cold_values = session.cold_values(cold)
            identical = set(warm_values) == set(cold_values) and all(
                np.array_equal(warm_values[key], cold_values[key])
                for key in cold_values
            )
            if not identical:
                raise AssertionError(
                    f"incremental bench: {app} at {delete_fraction}+"
                    f"{insert_fraction} diverged from the cold recompute"
                )
            cut = (
                cold.communication_messages
                / step.result.communication_messages
                if step.result.communication_messages
                else float("inf")
            )
            if not smoke and is_bar and cut < 2.0:
                raise AssertionError(
                    f"incremental bench: {app} at ~1% mutations cut "
                    f"messages only {cut:.2f}x (bar: >= 2x)"
                )
            cache_reuses += step.cache_reuses
            cache_invalidations += step.cache_invalidations
            rows.append({
                "mutated_fraction": delete_fraction + insert_fraction,
                "strategy": step.strategy,
                "affected_fraction": round(step.affected_fraction, 4),
                "hosts_reused": step.hosts_reused,
                "hosts_rebuilt": step.hosts_rebuilt,
                "cache_reuses": step.cache_reuses,
                "base_rounds": base.num_rounds,
                "streamed_rounds": step.result.num_rounds,
                "cold_rounds": cold.num_rounds,
                "streamed_messages": step.result.communication_messages,
                "cold_messages": cold.communication_messages,
                "streamed_bytes": step.result.communication_volume,
                "cold_bytes": cold.communication_volume,
                "message_cut": round(cut, 2),
                "acceptance_bar": is_bar,
                "bitwise_identical": identical,
            })
        total_cache_reuses += cache_reuses
        apps.append({
            "app": app,
            "policy": policy,
            "hosts": hosts,
            "steps": rows,
            "message_cut_at_1pct": next(
                (r["message_cut"] for r in rows if r["acceptance_bar"]),
                None,
            ),
            "partition_cache_reuses": cache_reuses,
            "partition_cache_invalidations": cache_invalidations,
        })
    if not smoke and total_cache_reuses == 0:
        raise AssertionError(
            "incremental bench: no sweep row recorded a warm "
            "partition-cache hit"
        )
    return {"cells": apps}


def bench_features(
    workload: str,
    scale_delta: int,
    hosts: int = 4,
    policy: str = "cvc",
    dims: tuple = (8, 32, 128),
    feature_rounds: int = 4,
) -> dict:
    """Wide-payload cell: labelprop bytes/round across compression modes.

    Label propagation is the bandwidth-bound, slowly-changing feature
    workload: its wide field is the one-hot label matrix, so a settled
    row never ships and a flipped label changes exactly two of ``d``
    columns — the shape delta encoding exists for.  For each feature
    width the cell sweeps the compression modes, asserts every mode
    returns bitwise-identical labels (one-hot rows and small vote counts
    are exact even in float16), reconciles the published byte counters
    against the transport's accounting, and enforces the acceptance
    bar: delta must cut bytes/round by >= 2x at d=128.
    """
    import numpy as np

    edges = load_workload(workload, scale_delta)
    sweeps: List[dict] = []
    bar_cut = None
    for dim in dims:
        rows: List[dict] = []
        labels = {}
        for compression in ("none", "delta", "fp16"):
            obs = Observability()
            result = run_app(
                "d-galois", "labelprop", edges, num_hosts=hosts,
                policy=policy, compression=compression, feature_dim=dim,
                feature_rounds=feature_rounds, observability=obs,
            )
            stats = result.executor.transport.stats
            metered = obs.metrics.counter_total("bytes_sent_total")
            if metered != stats.total_bytes:
                raise AssertionError(
                    f"features bench: d={dim} {compression}: metrics "
                    f"bytes {metered} != CommStats bytes "
                    f"{stats.total_bytes}"
                )
            labels[compression] = result.executor.gather_result("label")
            rows.append({
                "compression": compression,
                "total_bytes": result.communication_volume,
                "rounds": result.num_rounds,
                "bytes_per_round": round(
                    result.communication_volume / max(result.num_rounds, 1),
                    1,
                ),
                "reconciled": True,
            })
        if not all(
            np.array_equal(labels[mode], labels["none"]) for mode in labels
        ):
            raise AssertionError(
                f"features bench: labelprop labels diverged across "
                f"compression modes at d={dim}"
            )
        none_bpr = rows[0]["bytes_per_round"]
        delta_bpr = rows[1]["bytes_per_round"]
        cut = none_bpr / delta_bpr if delta_bpr else float("inf")
        sweeps.append({
            "feature_dim": dim,
            "modes": rows,
            "delta_byte_cut": round(cut, 2),
            "bitwise_identical": True,
        })
        if dim == 128:
            bar_cut = cut
            if cut < 2.0:
                raise AssertionError(
                    f"features bench: delta cut bytes/round only "
                    f"{cut:.2f}x at d=128 (bar: >= 2x)"
                )
    return {
        "app": "labelprop",
        "policy": policy,
        "hosts": hosts,
        "feature_rounds": feature_rounds,
        "dims": sweeps,
        "delta_byte_cut_at_128": (
            round(bar_cut, 2) if bar_cut is not None else None
        ),
    }


def bench_dataflow(
    workload: str,
    scale_delta: int,
    smoke: bool = False,
) -> dict:
    """Dataflow-optimizer cell: GL301 eliminations must be free *and* real.

    For every migrated spec the cell records what the whole-program
    analyzer proves dead, then runs ``<app>`` next to
    ``<app>@optimized`` at the OTI optimization level (where temporal
    elision still ships empty-payload messages, so a dropped sync phase
    is visible as a message-count cut) under the iec/oec strategies the
    proofs target.  Results must stay bitwise identical; the cell
    reports the measured messages and bytes-per-round saved per app.
    """
    import numpy as np

    from repro.analysis.dataflow import (
        certify_spec,
        dead_sync_table,
        graph_from_spec,
    )
    from repro.apps.specs import PROGRAM_SPECS
    from repro.core.optimization import OptimizationLevel
    from repro.verify import output_key

    edges = load_workload(workload, scale_delta)
    apps = ("bfs", "sssp") if smoke else tuple(sorted(PROGRAM_SPECS))
    policies = ("iec", "oec")
    num_hosts = 2 if smoke else 4
    cells: List[dict] = []
    total_eliminated = 0
    for app in apps:
        spec = PROGRAM_SPECS[app]
        table = dead_sync_table(graph_from_spec(spec))
        eliminated = sum(
            len(phases)
            for per_wire in table.values()
            for phases in per_wire.values()
        )
        total_eliminated += eliminated
        certificate = certify_spec(spec)
        key = output_key(app)
        per_policy: List[dict] = []
        for policy in policies:
            base = run_app(
                "d-galois", app, edges,
                num_hosts=num_hosts, policy=policy,
                level=OptimizationLevel.OTI,
            )
            optimized = run_app(
                "d-galois", f"{app}@optimized", edges,
                num_hosts=num_hosts, policy=policy,
                level=OptimizationLevel.OTI,
            )
            expected = base.executor.gather_result(key)
            got = optimized.executor.gather_result(key)
            if got.dtype != expected.dtype or not np.array_equal(
                got, expected
            ):
                raise AssertionError(
                    f"dataflow bench: {app}/{policy}: optimized build "
                    "diverged from the bare-name program"
                )
            rounds = max(optimized.num_rounds, 1)
            per_policy.append({
                "policy": policy,
                "rounds": optimized.num_rounds,
                "messages": base.communication_messages,
                "messages_optimized": optimized.communication_messages,
                "bytes": base.communication_volume,
                "bytes_optimized": optimized.communication_volume,
                "bytes_per_round_saved": round(
                    (
                        base.communication_volume
                        - optimized.communication_volume
                    )
                    / rounds,
                    2,
                ),
                "bitwise_identical": True,
            })
        cells.append({
            "app": app,
            "syncs_eliminated": eliminated,
            "dead_sync_table": {
                strategy: {
                    wire: list(phases) for wire, phases in per_wire.items()
                }
                for strategy, per_wire in table.items()
            },
            "self_stabilizing": certificate.self_stabilizing,
            "policies": per_policy,
        })
    if total_eliminated == 0:
        raise AssertionError(
            "dataflow bench: the analyzer proved no sync phase dead on "
            "any migrated spec — GL301 regressed"
        )
    return {
        "apps": list(apps),
        "hosts": num_hosts,
        "level": "OTI",
        "policies": list(policies),
        "syncs_eliminated_total": total_eliminated,
        "cells": cells,
    }


def run_matrix(args: argparse.Namespace) -> dict:
    """Run the configured matrix; returns the emission payload."""
    apps = args.apps.split(",") if args.apps else (
        SMOKE_APPS if args.smoke else DEFAULT_APPS
    )
    hosts = (
        [int(h) for h in args.hosts.split(",")]
        if args.hosts
        else (SMOKE_HOSTS if args.smoke else DEFAULT_HOSTS)
    )
    policies = args.policies.split(",") if args.policies else DEFAULT_POLICIES
    scale_delta = (
        args.scale_delta
        if args.scale_delta is not None
        else (SMOKE_SCALE_DELTA if args.smoke else 0)
    )
    export_dir = Path(args.export_dir) if args.export_dir else None
    if export_dir is not None:
        export_dir.mkdir(parents=True, exist_ok=True)
    rows: List[dict] = []
    for app in apps:
        for policy in policies:
            for num_hosts in hosts:
                row = bench_cell(
                    app, policy, num_hosts, args.workload, scale_delta,
                    export_dir,
                )
                rows.append(row)
                print(
                    f"  {app:>5} {policy:>4} {num_hosts:>2} hosts: "
                    f"wall {row['wall_s']:.3f}s, "
                    f"sim {row['sim_time_s']:.4f}s, "
                    f"{row['total_bytes'] / 1e3:.1f} KB, "
                    f"{row['rounds']} rounds",
                    file=sys.stderr,
                )
    service = None
    if not args.no_service:
        service_apps = ("bfs",) if args.smoke else ("bfs", "pr", "cc")
        service = bench_service(
            args.workload,
            scale_delta,
            apps=service_apps,
            repeats=2 if args.smoke else 3,
        )
        print(
            f"  service: {service['jobs']} jobs, "
            f"cold {service['cold_jobs_per_s']:.1f} jobs/s, "
            f"warm {service['warm_jobs_per_s']:.1f} jobs/s "
            f"({service['speedup']:.1f}x)",
            file=sys.stderr,
        )
    aggregation = None
    if not args.no_aggregation_cell:
        aggregation = bench_aggregation(args.workload, scale_delta)
        print(
            f"  aggregation: bc two-field sweep "
            f"{aggregation['two_field_messages_per_field']} -> "
            f"{aggregation['two_field_messages_aggregated']} messages "
            f"({aggregation['two_field_reduction']:.1f}x)",
            file=sys.stderr,
        )
    parallel = None
    if not args.no_parallel_cell:
        parallel = bench_parallel(
            args.workload,
            scale_delta,
            hosts=4 if args.smoke else 8,
            worker_counts=(1, 2) if args.smoke else (1, 2, 4, 8),
            smoke=args.smoke,
        )
        per_worker = ", ".join(
            f"{row['workers']}w {row['wall_rounds_s']:.3f}s"
            for row in parallel["workers"]
        )
        speedup = parallel["speedup_at_4_workers"]
        print(
            f"  parallel: pr {parallel['hosts']} hosts ({per_worker})"
            + (f", {speedup:.1f}x at 4 workers" if speedup else ""),
            file=sys.stderr,
        )
    features = None
    if not args.no_features_cell:
        features = bench_features(
            args.workload,
            scale_delta,
            hosts=4 if args.smoke else 8,
            dims=(8, 128) if args.smoke else (8, 32, 128),
        )
        for sweep in features["dims"]:
            print(
                f"  features: labelprop d={sweep['feature_dim']}, "
                + ", ".join(
                    f"{m['compression']} {m['bytes_per_round']:.0f} B/round"
                    for m in sweep["modes"]
                )
                + f" (delta cut {sweep['delta_byte_cut']:.1f}x)",
                file=sys.stderr,
            )
    incremental = None
    if not args.no_incremental_cell:
        # Full mode defaults this cell to a 512-node graph: big enough
        # for meaningful fraction-sized batches, small enough that the
        # per-step cold-recompute oracle stays cheap.
        incremental_delta = (
            args.scale_delta if args.scale_delta is not None
            else (scale_delta if args.smoke else -3)
        )
        incremental = bench_incremental(
            args.workload,
            incremental_delta,
            hosts=4 if args.smoke else 8,
            smoke=args.smoke,
        )
        for cell in incremental["cells"]:
            print(
                f"  incremental: {cell['app']} {cell['hosts']} hosts, "
                f"{len(cell['steps'])} batch(es), "
                f"message cut {cell['message_cut_at_1pct']}x at ~1%, "
                f"{cell['partition_cache_reuses']} warm cache hit(s)",
                file=sys.stderr,
            )
    dataflow = None
    if not args.no_dataflow_cell:
        dataflow = bench_dataflow(
            args.workload, scale_delta, smoke=args.smoke
        )
        for cell in dataflow["cells"]:
            cuts = ", ".join(
                f"{p['policy']} {p['messages']}->"
                f"{p['messages_optimized']} msgs"
                for p in cell["policies"]
            )
            print(
                f"  dataflow: {cell['app']} "
                f"{cell['syncs_eliminated']} dead sync phase(s), {cuts}",
                file=sys.stderr,
            )
    return {
        "date": date.today().isoformat(),
        "workload": args.workload,
        "scale_delta": scale_delta,
        "smoke": bool(args.smoke),
        "matrix": rows,
        "service": service,
        "aggregation": aggregation,
        "parallel": parallel,
        "features": features,
        "incremental": incremental,
        "dataflow": dataflow,
    }


def build_parser() -> argparse.ArgumentParser:
    """The harness's argument parser."""
    parser = argparse.ArgumentParser(
        description="run the benchmark matrix and emit BENCH_<date>.json"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized: tiny graph, bfs only, trace/metrics export checked",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="output path (default: BENCH_<date>.json in the repo root; "
        "a --smoke run defaults to a temp directory instead)",
    )
    parser.add_argument("--workload", default="rmat22s")
    parser.add_argument("--apps", default=None, help="comma list of apps")
    parser.add_argument(
        "--policies", default=None, help="comma list of partition policies"
    )
    parser.add_argument(
        "--hosts", default=None, help="comma list of host counts"
    )
    parser.add_argument("--scale-delta", type=int, default=None)
    parser.add_argument(
        "--no-service",
        action="store_true",
        help="skip the repeated-query job-service throughput cell",
    )
    parser.add_argument(
        "--no-aggregation-cell",
        action="store_true",
        help="skip the bc aggregated-vs-per-field message-count cell",
    )
    parser.add_argument(
        "--no-parallel-cell",
        action="store_true",
        help="skip the process-runtime pagerank wall-clock speedup cell",
    )
    parser.add_argument(
        "--no-features-cell",
        action="store_true",
        help="skip the wide-payload labelprop compression-sweep cell",
    )
    parser.add_argument(
        "--no-incremental-cell",
        action="store_true",
        help="skip the streaming incremental-vs-cold recompute cell",
    )
    parser.add_argument(
        "--no-dataflow-cell",
        action="store_true",
        help="skip the GL301 dead-sync-elimination message-cut cell",
    )
    parser.add_argument(
        "--export-dir",
        default=None,
        help="also write per-cell trace/metrics files here "
        "(smoke mode defaults this to a temp directory)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.smoke and args.export_dir is None:
        # Smoke exists to exercise the exporters: always export somewhere.
        args.export_dir = tempfile.mkdtemp(prefix="repro-bench-")
    payload = run_matrix(args)
    if args.output:
        output = Path(args.output)
    elif args.smoke:
        # Only a full run may extend the tracked BENCH_<date>.json
        # trajectory in the repo root; smoke output is scratch.
        output = (
            Path(tempfile.mkdtemp(prefix="repro-bench-"))
            / f"BENCH_{payload['date']}.smoke.json"
        )
    else:
        output = (
            Path(__file__).resolve().parent.parent
            / f"BENCH_{payload['date']}.json"
        )
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output} ({len(payload['matrix'])} cells)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
