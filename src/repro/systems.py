"""System assembly: the five evaluated graph-analytics systems (§5).

A *system* is an (engine, partitioner, optimization level, transport)
bundle behind one entry point, :func:`run_app`:

* ``d-galois`` — Galois engine + Gluon (OSTI), any partition policy.
* ``d-ligra``  — Ligra engine + Gluon (OSTI), any partition policy.
* ``d-irgl``   — IrGL GPU engine + Gluon (OSTI), any partition policy.
* ``gemini``   — Gemini engine + dual-rep chunked edge cut + gid-based
  gather-apply-scatter sync (no Gluon optimizations).
* ``gunrock``  — Gunrock GPU engine + random edge cut, single node only,
  over the fast intra-node fabric.
* ``galois`` / ``ligra`` / ``irgl`` — the shared-memory originals: one
  host, synchronization layer disabled (Table 4/5 baselines).

The partitioning policy is a runtime choice (a command-line flag in the
paper, a keyword argument here), independent of the application code —
Gluon's central usability claim (§3.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.apps import make_app
from repro.apps.base import AppContext
from repro.core.optimization import OptimizationLevel
from repro.engines import make_engine
from repro.engines.gemini import GeminiPartitioner
from repro.errors import ExecutionError
from repro.graph.edgelist import EdgeList
from repro.network.cost_model import (
    LCI_PARAMETERS,
    NetworkParameters,
)
from repro.partition import make_partitioner
from repro.partition.build import build_partition
from repro.partition.strategy import OperatorClass
from repro.runtime.executor import DistributedExecutor
from repro.runtime.stats import RunResult
from repro.utils.rng import make_rng

#: Intra-node GPU interconnect (NVLink/PCIe peer-to-peer): higher bandwidth,
#: lower latency than the inter-node fabric.  Used by Gunrock and by
#: D-IrGL when all "hosts" share one physical node.
INTRA_NODE_PARAMETERS = NetworkParameters(
    name="intra-node", latency_s=5.0e-7, bandwidth_bytes_per_s=40.0e9
)

#: Number of GPUs per physical node on the Bridges-like platform (§5.1).
GPUS_PER_NODE = 4

GLUON_SYSTEMS = ("d-galois", "d-ligra", "d-irgl", "d-hybrid")
SHARED_MEMORY_SYSTEMS = ("galois", "ligra", "irgl")
BASELINE_SYSTEMS = ("gemini", "gunrock")
ALL_SYSTEMS = GLUON_SYSTEMS + SHARED_MEMORY_SYSTEMS + BASELINE_SYSTEMS


@dataclass
class PreparedInput:
    """An input graph readied for one application."""

    edges: EdgeList
    ctx: AppContext


def default_source(
    edges: EdgeList, out_degree: Optional[np.ndarray] = None
) -> int:
    """The paper's bfs/sssp source: the maximum out-degree node (§5.1),
    read off ``out_degree`` when the caller has already counted it."""
    if edges.num_nodes == 0:
        raise ExecutionError("cannot pick a source in an empty graph")
    if out_degree is None:
        out_degree = np.bincount(edges.src, minlength=edges.num_nodes)
    return int(out_degree.argmax())


def prepare_input(
    app_name: str,
    edges: EdgeList,
    source: Optional[int] = None,
    weight_seed: int = 42,
    tolerance: float = 1e-6,
    max_iterations: int = 100,
    k: int = 2,
    feature_dim: int = 8,
    feature_rounds: int = 3,
    compression: str = "none",
) -> PreparedInput:
    """Apply the app's input requirements (weights, symmetry) and build ctx."""
    app = make_app(app_name)
    if app.symmetrize_input:
        edges = edges.symmetrize()
    if app.needs_weights and not edges.has_weights:
        edges = edges.with_random_weights(make_rng(weight_seed))
    out_degree = None
    if app.needs_global_degrees:
        out_degree = np.bincount(edges.src, minlength=edges.num_nodes)
    if source is None:
        source = default_source(edges, out_degree)
    ctx = AppContext(
        num_global_nodes=edges.num_nodes,
        source=source,
        tolerance=tolerance,
        max_iterations=max_iterations,
        k=k,
        feature_dim=feature_dim,
        feature_rounds=feature_rounds,
        compression=compression,
        global_out_degree=out_degree,
    )
    if app.needs_global_in_degrees:
        ctx.global_in_degree = np.bincount(
            edges.dst, minlength=edges.num_nodes
        )
    return PreparedInput(edges=edges, ctx=ctx)


def _resolve_system(
    system: str,
    app_operator: OperatorClass,
    policy: Optional[str],
    num_hosts: int,
    level: Optional[OptimizationLevel],
    network: Optional[NetworkParameters],
    partition_seed: int,
):
    """Map a system name to (engine, partitioner, level, network, sync)."""
    system = system.lower()
    if system in GLUON_SYSTEMS:
        if system == "d-hybrid":
            # Figure 1's heterogeneous cluster: alternating CPU hosts
            # (Galois engine) and GPU hosts (IrGL engine).
            engine = [
                make_engine("galois") if h % 2 == 0 else make_engine("irgl")
                for h in range(num_hosts)
            ]
        else:
            engine = make_engine(system[2:])
        partitioner = make_partitioner(
            policy or "cvc",
            **({"seed": partition_seed} if (policy or "cvc") == "random" else {}),
        )
        resolved_level = level or OptimizationLevel.OSTI
        if network is None:
            # D-IrGL on <= GPUS_PER_NODE GPUs runs inside one node.
            if system == "d-irgl" and num_hosts <= GPUS_PER_NODE:
                network = INTRA_NODE_PARAMETERS
            else:
                network = LCI_PARAMETERS
        return engine, partitioner, resolved_level, network, True
    if system in SHARED_MEMORY_SYSTEMS:
        if num_hosts != 1:
            raise ExecutionError(
                f"{system} is a shared-memory system; use d-{system} for "
                f"{num_hosts} hosts"
            )
        if policy is not None:
            raise ExecutionError(
                f"{system} runs unpartitioned; the policy flag applies to "
                "distributed systems"
            )
        engine = make_engine(system)
        partitioner = make_partitioner("oec")
        return engine, partitioner, OptimizationLevel.OSTI, (
            network or LCI_PARAMETERS
        ), False
    if system == "gemini":
        if policy not in (None, "gemini"):
            raise ExecutionError("Gemini supports only its own edge cut (§5)")
        mode = "pull" if app_operator is OperatorClass.PULL else "push"
        engine = make_engine("gemini")
        return engine, GeminiPartitioner(mode=mode), (
            level or OptimizationLevel.UNOPT
        ), (network or LCI_PARAMETERS), True
    if system == "gunrock":
        if num_hosts > GPUS_PER_NODE:
            raise ExecutionError(
                f"Gunrock is single-node: at most {GPUS_PER_NODE} GPUs (§5.5)"
            )
        if policy not in (None, "random", "oec"):
            raise ExecutionError(
                "Gunrock supports only outgoing edge cuts (§5.5)"
            )
        engine = make_engine("gunrock")
        partitioner = make_partitioner(
            policy or "random",
            **({"seed": partition_seed} if (policy or "random") == "random" else {}),
        )
        return engine, partitioner, (level or OptimizationLevel.OSI), (
            network or INTRA_NODE_PARAMETERS
        ), True
    raise ExecutionError(
        f"unknown system {system!r} (known: {', '.join(ALL_SYSTEMS)})"
    )


def run_app(
    system: str,
    app_name: str,
    edges: EdgeList,
    num_hosts: int,
    policy: Optional[str] = None,
    level: Optional[OptimizationLevel] = None,
    network: Optional[NetworkParameters] = None,
    source: Optional[int] = None,
    max_rounds: int = 100_000,
    weight_seed: int = 42,
    partition_seed: int = 0,
    tolerance: float = 1e-6,
    max_iterations: int = 100,
    k: int = 2,
    feature_dim: int = 8,
    feature_rounds: int = 3,
    compression: str = "none",
    resilience=None,
    observability=None,
    partition_cache=None,
    aggregate_comm: bool = True,
    sanitize: bool = False,
    runtime: str = "simulated",
    workers=None,
) -> RunResult:
    """Run ``app_name`` on ``edges`` under ``system`` with ``num_hosts``.

    ``runtime`` selects the round-execution backend: ``"simulated"``
    (default, every host round-robins in this process) or ``"process"``
    (the CLI's ``--runtime process`` — hosts execute in real worker
    processes over zero-copy shared-memory graph stores; ``workers``
    caps the fleet size).  Results are bitwise identical either way;
    only ``result.wall_rounds_s`` differs.

    ``aggregate_comm`` selects the communication plane's mode: per-peer
    cross-field message aggregation (default) or the per-field ablation
    (the CLI's ``--no-aggregation``).  Application results are bitwise
    identical either way; only the wire shape — and therefore the
    simulated communication time — differs.

    ``sanitize`` turns on the proxy-access sanitizer (the CLI's
    ``--sanitize``): compute rounds run over guarded field views that
    audit endpoint-indexed accesses against each field's declared proxy
    sets.  Results stay bitwise identical; violations land on
    ``result.sanitizer_findings``.

    Returns the :class:`~repro.runtime.stats.RunResult`, whose
    ``construction_time`` includes the measured partitioning wall-clock
    (Table 2) and whose per-round records feed every figure.

    ``resilience`` (a :class:`~repro.resilience.ResilienceConfig`) makes
    the run failable and survivable: faults are injected per its plan,
    state is checkpointed on its cadence, and crashes are survived with
    its recovery protocol, all accounted on the result.

    ``observability`` (a :class:`~repro.observability.Observability`)
    turns on span tracing and metrics for the run: partitioning, the
    memoization exchange, every BSP round, and the resilience machinery
    record into its tracer/registry, ready for the exporters
    (``repro run --trace/--metrics``).

    ``partition_cache`` (anything speaking the protocol of
    :func:`repro.partition.build.build_partition`, e.g. a
    :class:`~repro.service.cache.ServiceCache`) short-circuits
    partitioning *and* the memoization exchange when an identical
    (graph, policy, hosts) triple was partitioned before; after a fresh
    run, the partition and its harvested sync structures are stored for
    the next caller.  ``result.partition_cache_hit`` records which path
    ran.
    """
    prepared = prepare_input(
        app_name,
        edges,
        source=source,
        weight_seed=weight_seed,
        tolerance=tolerance,
        max_iterations=max_iterations,
        k=k,
        feature_dim=feature_dim,
        feature_rounds=feature_rounds,
        compression=compression,
    )
    app = make_app(app_name)
    engine, partitioner, resolved_level, resolved_network, sync = (
        _resolve_system(
            system,
            app.operator_class,
            policy,
            num_hosts,
            level,
            network,
            partition_seed,
        )
    )
    outcome = build_partition(
        prepared.edges, partitioner, num_hosts, cache=partition_cache
    )
    partitioned = outcome.partitioned
    partition_time = outcome.wall_s
    if observability is not None and observability.tracer.enabled:
        observability.tracer.record_sequential(
            "partition",
            partition_time,
            cat="construction",
            app=app_name,
            policy=partitioned.policy_name,
            hosts=num_hosts,
        )
    if getattr(app, "multi_phase", False):
        if resilience is not None:
            raise ExecutionError(
                f"{app_name} is multi-phase; resilience is only supported "
                "for single-executor applications"
            )
        if observability is not None:
            raise ExecutionError(
                f"{app_name} is multi-phase; observability is only "
                "supported for single-executor applications"
            )
        # Multi-phase applications (betweenness centrality) drive their
        # own executor passes over the shared partition.
        result = app.run_phases(
            partitioned,
            engine,
            prepared.ctx,
            level=resolved_level,
            network=resolved_network,
            enable_sync=sync,
            system_name=system.lower(),
            max_rounds=max_rounds,
            aggregate_comm=aggregate_comm,
            sanitize=sanitize,
            runtime=runtime,
            workers=workers,
        )
        result.construction_time += partition_time
        if partition_cache is not None and not outcome.from_cache:
            # Multi-phase apps drive their own executors; only the
            # partition itself is reusable.
            partition_cache.put_partition(outcome.key, partitioned)
        result.partition_cache_hit = outcome.from_cache  # type: ignore[attr-defined]
        return result
    executor = DistributedExecutor(
        partitioned,
        engine,
        app,
        prepared.ctx,
        level=resolved_level,
        network=resolved_network,
        enable_sync=sync,
        system_name=system.lower(),
        resilience=resilience,
        observability=observability,
        prepared_sync=outcome.prepared_sync,
        aggregate_comm=aggregate_comm,
        sanitize=sanitize,
        runtime=runtime,
        workers=workers,
    )
    result = executor.run(max_rounds=max_rounds)
    result.construction_time += partition_time
    if (
        partition_cache is not None
        and not outcome.from_cache
        and executor.partitioned is partitioned
    ):
        # Store the partition together with the memoized sync structures
        # the run just paid for (the §4 temporal-invariance amortization,
        # extended across jobs).  Skipped after a mid-run repartition,
        # where the books no longer describe the keyed partition.
        partition_cache.put_partition(
            outcome.key, partitioned, executor.harvest_prepared_sync()
        )
    result.partition_cache_hit = outcome.from_cache  # type: ignore[attr-defined]
    # Keep the executor alive on the result for state inspection.
    result.executor = executor  # type: ignore[attr-defined]
    return result
