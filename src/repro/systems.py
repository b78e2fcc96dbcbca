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

from dataclasses import dataclass, replace
from typing import Dict, Optional

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
from repro.options import (
    ALL_SYSTEMS,
    GLUON_SYSTEMS,
    GPUS_PER_NODE,
    SHARED_MEMORY_SYSTEMS,
    check_refusals,
    plan_options,
)
from repro.partition import make_partitioner
from repro.partition.build import (
    BuildOutcome,
    build_partition,
    partition_cache_key,
)
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


def context_for(app, edges: EdgeList, params: AppContext) -> AppContext:
    """``params`` with its graph-derived half recomputed for ``edges``.

    The one context build: :func:`prepare_input` uses it for the input
    graph, a streaming session for every later version (passing the
    previous version's context, so source and parameters carry forward).
    Global degrees cost one ``bincount`` each and are counted only for
    the apps that read them.
    """
    n = edges.num_nodes
    return replace(
        params,
        num_global_nodes=n,
        global_out_degree=(
            np.bincount(edges.src, minlength=n)
            if app.needs_global_degrees
            else None
        ),
        global_in_degree=(
            np.bincount(edges.dst, minlength=n)
            if app.needs_global_in_degrees
            else None
        ),
    )


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
    """Apply the app's input requirements (weights, symmetry) and build ctx.

    The default source (§5.1) is picked only for an app that reads one
    (``needs_source``); the others get ``ctx.source = None``.
    """
    app = make_app(app_name)
    if app.symmetrize_input:
        edges = edges.symmetrize()
    if app.needs_weights and not edges.has_weights:
        edges = edges.with_random_weights(make_rng(weight_seed))
    ctx = context_for(
        app,
        edges,
        AppContext(
            num_global_nodes=edges.num_nodes,
            tolerance=tolerance,
            max_iterations=max_iterations,
            k=k,
            feature_dim=feature_dim,
            feature_rounds=feature_rounds,
            compression=compression,
        ),
    )
    if source is None and app.needs_source:
        source = default_source(edges, ctx.global_out_degree)
    ctx.source = source
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
    """Map a system name to (engine, partitioner, level, network, sync).

    Which (system, policy, hosts) combinations exist at all is
    :data:`repro.options.REFUSALS`' business; ``plan_run`` has already
    checked it.
    """
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
        engine = make_engine(system)
        partitioner = make_partitioner("oec")
        return engine, partitioner, OptimizationLevel.OSTI, (
            network or LCI_PARAMETERS
        ), False
    if system == "gemini":
        mode = "pull" if app_operator is OperatorClass.PULL else "push"
        engine = make_engine("gemini")
        return engine, GeminiPartitioner(mode=mode), (
            level or OptimizationLevel.UNOPT
        ), (network or LCI_PARAMETERS), True
    if system == "gunrock":
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


@dataclass(frozen=True)
class RunPlan:
    """Everything :func:`run_app` decides before round 1.

    The app, its prepared input, the system's engine(s), partitioner,
    level, fabric and sync switch, and the execution options — but not
    the partition: :meth:`partition_cache_key` must be answerable without
    paying for :meth:`build` (the service dedupes a batch on it).  A
    plan pins the prepared edge list, so it lives as long as its caller
    needs it and is never attached to an executor or a result.
    """

    system: str
    app: object
    prepared: PreparedInput
    num_hosts: int
    engine: object
    partitioner: object
    level: OptimizationLevel
    network: NetworkParameters
    sync: bool
    observability: Optional[object]
    max_rounds: int
    #: The executor-stage options (:data:`repro.options.PLAN_KEYWORDS`), by name.
    execution: Dict

    def at(self, edges: EdgeList) -> "RunPlan":
        """This plan over a later version of its (already prepared) graph."""
        ctx = context_for(self.app, edges, self.prepared.ctx)
        return replace(self, prepared=PreparedInput(edges=edges, ctx=ctx))

    def partition_cache_key(self) -> str:
        """Content address of the partition :meth:`build` would produce."""
        return partition_cache_key(
            self.prepared.edges, self.partitioner, self.num_hosts
        )

    def build(self, cache=None) -> BuildOutcome:
        """Partition the prepared graph (or fetch it from ``cache``)."""
        outcome = build_partition(
            self.prepared.edges, self.partitioner, self.num_hosts, cache=cache
        )
        obs = self.observability
        if obs is not None and obs.tracer.enabled:
            obs.tracer.record_sequential(
                "partition", outcome.wall_s, cat="construction", app=self.app.name,
                policy=outcome.partitioned.policy_name, hosts=self.num_hosts,
            )
        return outcome

    def executor(self, partitioned, prepared_sync=None) -> DistributedExecutor:
        """A fresh executor over ``partitioned``."""
        return DistributedExecutor(
            partitioned,
            self.engine,
            self.app,
            self.prepared.ctx,
            level=self.level,
            network=self.network,
            enable_sync=self.sync,
            system_name=self.system,
            observability=self.observability,
            prepared_sync=prepared_sync,
            **self.execution,
        )

    def run(self, cache=None) -> RunResult:
        """Build, execute to convergence, account: the body of ``run_app``."""
        outcome = self.build(cache)
        partitioned = outcome.partitioned
        executor = self.executor(partitioned, prepared_sync=outcome.prepared_sync)
        result = executor.run(max_rounds=self.max_rounds)
        # Keep the executor alive on the result for state inspection.
        result.executor = executor  # type: ignore[attr-defined]
        result.construction_time += outcome.wall_s
        # The memoized sync structures the run just paid for ride along
        # (the §4 temporal-invariance amortization, extended across jobs) —
        # unless a mid-run repartition left them describing a partition
        # other than the keyed one.
        if cache is not None and not outcome.from_cache and executor.partitioned is partitioned:
            cache.put_partition(outcome.key, partitioned, executor.harvest_prepared_sync())
        result.partition_cache_hit = outcome.from_cache  # type: ignore[attr-defined]
        return result


def plan_run(
    system: str,
    app_name: str,
    edges: EdgeList,
    num_hosts: int,
    *,
    network: Optional[NetworkParameters] = None,
    observability=None,
    **options,
) -> RunPlan:
    """Plan one run: the single "refuse -> prepare -> resolve" every entry
    point shares.

    ``options`` are the job options of :class:`repro.options.JobSpec` in
    their resolved forms (:data:`repro.options.PLAN_KEYWORDS`; what is not
    given takes the table's default, an unknown keyword is a ``TypeError``
    naming it).  A combination :data:`repro.options.REFUSALS` refuses
    raises its :class:`ExecutionError` here, before anything is built.
    """
    stages = plan_options(options)
    system = system.lower()
    app = make_app(app_name)
    check_refusals(system=system, num_hosts=num_hosts, **options)
    prepared = prepare_input(app_name, edges, **stages["input"])
    engine, partitioner, level, network, sync = _resolve_system(
        system, app.operator_class, num_hosts=num_hosts, network=network,
        **stages["system"],
    )
    return RunPlan(
        system, app, prepared, num_hosts, engine, partitioner, level, network,
        sync, observability, stages["run"]["max_rounds"], stages["executor"],
    )


def run_app(
    system: str,
    app_name: str,
    edges: EdgeList,
    num_hosts: int,
    *,
    partition_cache=None,
    **options,
) -> RunResult:
    """Run ``app_name`` on ``edges`` under ``system`` with ``num_hosts``.

    ``options`` are :func:`plan_run`'s: the job options declared by
    :class:`repro.options.JobSpec` (``policy``, ``level``, ``source``,
    ``compression``, ``aggregate_comm``, ``sanitize``, ``runtime``,
    ``workers``, ... — the table gives each one's default and meaning;
    results are bitwise identical under every executor option, only the
    wire shape resp. ``result.wall_rounds_s`` differ) plus ``network``,
    ``resilience`` and ``observability``.

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
    return plan_run(system, app_name, edges, num_hosts, **options).run(partition_cache)
