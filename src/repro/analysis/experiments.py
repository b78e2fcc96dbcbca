"""Experiment harnesses: one function per table/figure of the paper (§5).

Every function returns a list of plain-dict rows (render with
:func:`repro.analysis.tables.format_table`).  The benchmark suite under
``benchmarks/`` calls these with default arguments; examples and tests use
smaller ``scale_delta`` values.

All distributed runs use the *scaled fabric* (see
:func:`repro.network.cost_model.scaled_fabric`): byte counts stay exact,
while the latency/bandwidth model is scaled so the stand-in graphs run in
the same communication-bound regime as the paper's clusters.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.memory import project
from repro.analysis.tables import geomean
from repro.core.metadata import select_mode, encoded_size
from repro.core.optimization import OptimizationLevel
from repro.core.patterns import PHASES
from repro.graph.properties import compute_properties
from repro.network.cost_model import LCI_PARAMETERS, scaled_fabric
from repro.network.stats import RoundTraffic
from repro.observability import Observability
from repro.partition import make_partitioner
from repro.partition.build import build_partition
from repro.runtime.round import price_round
from repro.runtime.stats import RunResult
from repro.systems import (
    GPUS_PER_NODE,
    INTRA_NODE_PARAMETERS,
    prepare_input,
    run_app,
)
from repro.workloads import PAPER_INPUT_OF, load_workload

#: Paper Table 1 rows, for side-by-side rendering.
PAPER_TABLE1 = {
    "rmat26": {"|V|": "67M", "|E|": "1,074M", "|E|/|V|": 16},
    "twitter40": {"|V|": "41.6M", "|E|": "1,468M", "|E|/|V|": 35},
    "rmat28": {"|V|": "268M", "|E|": "4,295M", "|E|/|V|": 16},
    "kron30": {"|V|": "1,073M", "|E|": "10,791M", "|E|/|V|": 16},
    "clueweb12": {"|V|": "978M", "|E|": "42,574M", "|E|/|V|": 44},
    "wdc12": {"|V|": "3,563M", "|E|": "128,736M", "|E|/|V|": 36},
}

APPS = ("bfs", "cc", "pr", "sssp")


#: GPU systems' per-edge compute is ~4x a CPU host's, so the fabric scale
#: that restores the paper's compute:communication balance is ~4x smaller.
GPU_FABRIC_SCALE = 128.0


def _partition(edges, partitioner, num_hosts: int):
    """Build a partition through the helper ``repro run`` uses."""
    return build_partition(edges, partitioner, num_hosts).partitioned


def bench_network(system: str, num_hosts: int):
    """The scaled fabric a system would use at this host count."""
    if system in ("d-irgl", "irgl", "gunrock"):
        if system == "gunrock" or num_hosts <= GPUS_PER_NODE:
            return scaled_fabric(INTRA_NODE_PARAMETERS, GPU_FABRIC_SCALE)
        return scaled_fabric(LCI_PARAMETERS, GPU_FABRIC_SCALE)
    return scaled_fabric(LCI_PARAMETERS)


def run(
    system: str,
    app: str,
    workload: str,
    num_hosts: int,
    policy: Optional[str] = None,
    scale_delta: int = 0,
    level: Optional[OptimizationLevel] = None,
) -> RunResult:
    """One benchmark run on the scaled fabric."""
    edges = load_workload(workload, scale_delta)
    return run_app(
        system,
        app,
        edges,
        num_hosts=num_hosts,
        policy=policy,
        level=level,
        network=bench_network(system, num_hosts),
    )


# ---------------------------------------------------------------------------
# Table 1 — input properties
# ---------------------------------------------------------------------------


def table1_rows(scale_delta: int = 0) -> List[Dict]:
    """Stand-in graph properties next to the paper's inputs."""
    rows = []
    for name, paper_name in PAPER_INPUT_OF.items():
        props = compute_properties(
            load_workload(name, scale_delta), name=name
        )
        paper = PAPER_TABLE1[paper_name]
        rows.append(
            {
                "input": name,
                "stands in for": paper_name,
                "|V|": props.num_nodes,
                "|E|": props.num_edges,
                "|E|/|V|": round(props.avg_degree, 1),
                "max Dout": props.max_out_degree,
                "max Din": props.max_in_degree,
                "paper |V|": paper["|V|"],
                "paper |E|": paper["|E|"],
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Table 2 — graph construction time
# ---------------------------------------------------------------------------


def table2_rows(
    scale_delta: int = 0,
    hosts: Sequence[int] = (8, 16),
    inputs: Sequence[str] = ("rmat24s", "kron25s", "clueweb12s"),
) -> List[Dict]:
    """Measured load+partition+construct wall-clock per system."""
    rows = []
    for num_hosts in hosts:
        for workload in inputs:
            for system in ("d-ligra", "d-galois", "gemini"):
                result = run(system, "bfs", workload, num_hosts)
                rows.append(
                    {
                        "hosts": num_hosts,
                        "input": workload,
                        "system": system,
                        "construction_s": round(result.construction_time, 4),
                        "construction_KB": round(
                            result.construction_bytes / 1e3, 1
                        ),
                        "replication": round(result.replication_factor, 2),
                    }
                )
    return rows


def table2_single_host_rows(
    scale_delta: int = 0,
    inputs: Sequence[str] = ("rmat22s", "twitter40s", "rmat24s"),
) -> List[Dict]:
    """Table 2's single-host section: load+construct time on one host."""
    rows = []
    for workload in inputs:
        for system in ("ligra", "galois", "gemini"):
            result = run(system, "bfs", workload, 1, scale_delta=scale_delta)
            rows.append(
                {
                    "input": workload,
                    "system": system,
                    "construction_s": round(result.construction_time, 4),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Table 3 — best execution time of every system
# ---------------------------------------------------------------------------

#: Configurations the paper marks as failing.  Gemini crashed ("X") while
#: loading/partitioning wdc12; we annotate rather than simulate the crash.
PAPER_FAILURES = {("gemini", "wdc12s"): "X (paper: crash)"}

#: Our simulated clusters are proportionally smaller than the paper's:
#: 16 simulated CPU hosts stand in for Stampede's 256 KNL nodes and 16
#: simulated GPUs for Bridges' 64 K80s.  The out-of-memory projection
#: divides per-host shares by these factors so the gates trip for the
#: same configurations as Table 3.
CPU_HOST_SCALE = 16
GPU_HOST_SCALE = 4


def table3_rows(
    scale_delta: int = 0,
    cpu_hosts: Sequence[int] = (8, 16),
    gpu_hosts: Sequence[int] = (4, 16),
    inputs: Sequence[str] = ("rmat24s", "kron25s", "clueweb12s", "wdc12s"),
    apps: Sequence[str] = APPS,
) -> List[Dict]:
    """Best simulated time per system, app, and input (host count chosen
    like the paper: best-performing)."""
    systems = (
        ("d-ligra", cpu_hosts, False),
        ("d-galois", cpu_hosts, False),
        ("gemini", cpu_hosts, False),
        ("d-irgl", gpu_hosts, True),
    )
    rows = []
    for app in apps:
        for workload in inputs:
            row: Dict = {"app": app, "input": workload}
            for system, host_list, is_gpu in systems:
                row[system] = _best_time_cell(
                    system, app, workload, host_list, is_gpu, scale_delta
                )
            rows.append(row)
    return rows


def _best_time_cell(
    system: str,
    app: str,
    workload: str,
    host_list: Sequence[int],
    is_gpu: bool,
    scale_delta: int,
) -> str:
    if (system, workload) in PAPER_FAILURES:
        return PAPER_FAILURES[(system, workload)]
    best = None
    for num_hosts in host_list:
        policy = _feasible_policy(
            system, app, workload, num_hosts, is_gpu, scale_delta
        )
        if policy is _INFEASIBLE:
            continue
        result = run(
            system, app, workload, num_hosts, policy=policy,
            scale_delta=scale_delta,
        )
        if best is None or result.total_time < best[0]:
            best = (result.total_time, num_hosts)
    if best is None:
        return "- (OOM)"
    return f"{best[0]*1e3:.2f}ms ({best[1]})"


_INFEASIBLE = object()


def _feasible_policy(
    system: str,
    app: str,
    workload: str,
    num_hosts: int,
    is_gpu: bool,
    scale_delta: int,
):
    """Pick the policy the paper would: CVC, falling back to OEC when CVC
    does not fit in projected memory (§5.2 used OEC for D-IrGL on
    clueweb12 for exactly this reason).  Returns ``_INFEASIBLE`` when
    nothing fits; ``None`` means the system's own fixed policy.
    """
    if system == "gemini":
        fits = _fits_paper_memory(
            system, app, workload, num_hosts, is_gpu, scale_delta, None
        )
        return None if fits else _INFEASIBLE
    for policy in ("cvc", "oec"):
        if _fits_paper_memory(
            system, app, workload, num_hosts, is_gpu, scale_delta, policy
        ):
            return policy
    return _INFEASIBLE


def _fits_paper_memory(
    system: str,
    app: str,
    workload: str,
    num_hosts: int,
    is_gpu: bool,
    scale_delta: int,
    policy: Optional[str] = "cvc",
) -> bool:
    """Paper-scale memory projection for the OOM gates of Table 3."""
    prep = prepare_input(app, load_workload(workload, scale_delta))
    if system == "gemini":
        from repro.engines.gemini import GeminiPartitioner

        partitioned = _partition(prep.edges, GeminiPartitioner(), num_hosts)
        dual = True
    else:
        if system == "gunrock":
            policy = "random"
        partitioned = _partition(
            prep.edges, make_partitioner(policy or "cvc"), num_hosts
        )
        dual = False
    projection = project(
        partitioned,
        PAPER_INPUT_OF[workload],
        is_gpu=is_gpu,
        dual_representation=dual,
        host_scale=GPU_HOST_SCALE if is_gpu else CPU_HOST_SCALE,
    )
    return projection.fits


# ---------------------------------------------------------------------------
# Table 4 — single-host overhead of the Gluon layer
# ---------------------------------------------------------------------------


def table4_rows(
    scale_delta: int = 0,
    inputs: Sequence[str] = ("twitter40s", "rmat24s"),
    apps: Sequence[str] = APPS,
) -> List[Dict]:
    """Shared-memory originals vs their Gluon-scaled versions on 1 host."""
    systems = ("ligra", "d-ligra", "galois", "d-galois", "gemini")
    rows = []
    for workload in inputs:
        for app in apps:
            row: Dict = {"input": workload, "app": app}
            for system in systems:
                result = run(system, app, workload, 1, scale_delta=scale_delta)
                row[system] = round(result.total_time * 1e3, 3)
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Table 5 — single-node multi-GPU: Gunrock vs D-IrGL per policy
# ---------------------------------------------------------------------------


def table5_rows(
    scale_delta: int = 0,
    inputs: Sequence[str] = ("rmat22s", "twitter40s"),
    apps: Sequence[str] = APPS,
    num_gpus: int = 4,
) -> List[Dict]:
    """Gunrock vs D-IrGL under OEC/IEC/HVC/CVC on one 4-GPU node."""
    rows = []
    for workload in inputs:
        for app in apps:
            row: Dict = {"input": workload, "app": app}
            result = run("gunrock", app, workload, num_gpus, scale_delta=scale_delta)
            row["gunrock"] = round(result.total_time * 1e3, 3)
            for policy in ("oec", "iec", "hvc", "cvc"):
                result = run(
                    "d-irgl",
                    app,
                    workload,
                    num_gpus,
                    policy=policy,
                    scale_delta=scale_delta,
                )
                row[f"d-irgl({policy})"] = round(result.total_time * 1e3, 3)
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Figure 8 — strong scaling of the distributed CPU systems
# ---------------------------------------------------------------------------


def fig8_series(
    scale_delta: int = 0,
    hosts: Sequence[int] = (2, 4, 8, 16, 32),
    inputs: Sequence[str] = ("rmat24s", "kron25s", "clueweb12s"),
    apps: Sequence[str] = APPS,
    systems: Sequence[str] = ("d-ligra", "d-galois", "gemini"),
) -> List[Dict]:
    """Execution time (8a) and communication volume (8b) vs host count."""
    rows = []
    for app in apps:
        for workload in inputs:
            for system in systems:
                for num_hosts in hosts:
                    result = run(
                        system, app, workload, num_hosts,
                        scale_delta=scale_delta,
                    )
                    rows.append(
                        {
                            "app": app,
                            "input": workload,
                            "system": system,
                            "hosts": num_hosts,
                            "time_ms": round(result.total_time * 1e3, 3),
                            "comm_MB": round(
                                result.communication_volume / 1e6, 3
                            ),
                            "rounds": result.num_rounds,
                        }
                    )
    return rows


# ---------------------------------------------------------------------------
# Figure 9 — strong scaling of D-IrGL
# ---------------------------------------------------------------------------


def fig9_series(
    scale_delta: int = 1,
    gpus: Sequence[int] = (8, 16, 32),
    inputs: Sequence[str] = ("rmat24s", "kron25s"),
    apps: Sequence[str] = APPS,
) -> List[Dict]:
    """D-IrGL execution time vs GPU count.

    Defaults mirror Figure 9's setup: the inputs are one scale larger than
    the CPU studies' (the paper's GPU inputs are its biggest that fit) and
    the sweep starts at 8 GPUs — like the paper's rmat28/kron30 curves,
    whose smallest points are bounded by GPU memory, and avoiding the
    intra- vs inter-node fabric discontinuity at 4 GPUs.
    """
    rows = []
    for app in apps:
        for workload in inputs:
            for num_gpus in gpus:
                result = run(
                    "d-irgl", app, workload, num_gpus, scale_delta=scale_delta
                )
                rows.append(
                    {
                        "app": app,
                        "input": workload,
                        "gpus": num_gpus,
                        "time_ms": round(result.total_time * 1e3, 3),
                        "comm_MB": round(result.communication_volume / 1e6, 3),
                    }
                )
    return rows


# ---------------------------------------------------------------------------
# Figure 10 — communication-optimization breakdown
# ---------------------------------------------------------------------------

#: (system, workload, policy, hosts) panels, mirroring Figure 10(a)-(f)
#: at our scaled-down host counts.
FIG10_CONFIGS: Tuple = (
    ("d-galois", "clueweb12s", "cvc", 16),
    ("d-galois", "clueweb12s", "oec", 16),
    ("d-irgl", "rmat24s", "cvc", 16),
    ("d-irgl", "rmat24s", "iec", 16),
    ("d-irgl", "twitter40s", "cvc", 4),
    ("d-irgl", "twitter40s", "iec", 4),
)


def fig10_rows(
    scale_delta: int = 0,
    configs: Sequence[Tuple] = FIG10_CONFIGS,
    apps: Sequence[str] = APPS,
) -> List[Dict]:
    """UNOPT / OSI / OTI / OSTI breakdown per panel and app."""
    rows = []
    for system, workload, policy, num_hosts in configs:
        for app in apps:
            for level in OptimizationLevel:
                result = run(
                    system,
                    app,
                    workload,
                    num_hosts,
                    policy=policy,
                    scale_delta=scale_delta,
                    level=level,
                )
                rows.append(
                    {
                        "panel": f"{system}/{workload}/{policy}/{num_hosts}",
                        "app": app,
                        "level": level.value,
                        "time_ms": round(result.total_time * 1e3, 3),
                        "comp_ms": round(result.computation_time * 1e3, 3),
                        "comm_ms": round(result.communication_time * 1e3, 3),
                        "comm_MB": round(result.communication_volume / 1e6, 3),
                    }
                )
    return rows


def fig10_speedup(rows: Iterable[Dict]) -> float:
    """Geomean OSTI-over-UNOPT speedup across panels and apps (§5.6: ~2.6x)."""
    by_key: Dict[Tuple, Dict[str, float]] = {}
    for row in rows:
        key = (row["panel"], row["app"])
        by_key.setdefault(key, {})[row["level"]] = row["time_ms"]
    ratios = [
        levels["unopt"] / levels["osti"]
        for levels in by_key.values()
        if "unopt" in levels and "osti" in levels and levels["osti"] > 0
    ]
    return geomean(ratios)


# ---------------------------------------------------------------------------
# §5.2 — replication factors
# ---------------------------------------------------------------------------


def replication_rows(
    scale_delta: int = 0,
    hosts: Sequence[int] = (4, 8, 16, 32),
    workload: str = "rmat24s",
) -> List[Dict]:
    """Replication factor per policy and host count (§5.2's 2-8 vs 4-25)."""
    from repro.engines.gemini import GeminiPartitioner

    edges = load_workload(workload, scale_delta)
    rows = []
    for num_hosts in hosts:
        row: Dict = {"hosts": num_hosts}
        for policy in ("oec", "iec", "cvc", "hvc", "jagged"):
            partitioned = _partition(
                edges, make_partitioner(policy), num_hosts
            )
            row[policy] = round(partitioned.replication_factor(), 2)
        gemini = _partition(edges, GeminiPartitioner(), num_hosts)
        row["gemini"] = round(gemini.replication_factor(), 2)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# §5.4 — load imbalance and round counts
# ---------------------------------------------------------------------------


def load_imbalance_rows(
    scale_delta: int = 0,
    num_hosts: int = 16,
    inputs: Sequence[str] = ("clueweb12s", "wdc12s"),
    apps: Sequence[str] = ("bfs", "cc", "pr", "sssp"),
) -> List[Dict]:
    """Max-by-mean computation time (§5.4's imbalance metric)."""
    rows = []
    for workload in inputs:
        for app in apps:
            for system in ("d-galois", "d-ligra"):
                result = run(system, app, workload, num_hosts, scale_delta=scale_delta)
                rows.append(
                    {
                        "input": workload,
                        "app": app,
                        "system": system,
                        "max/mean": round(result.load_imbalance(), 2),
                    }
                )
    return rows


def round_count_rows(
    scale_delta: int = 0,
    num_hosts: int = 8,
    inputs: Sequence[str] = ("rmat24s", "clueweb12s"),
    apps: Sequence[str] = ("bfs", "cc", "sssp"),
) -> List[Dict]:
    """BSP rounds: level-synchronous D-Ligra vs async-within-host D-Galois."""
    rows = []
    for workload in inputs:
        for app in apps:
            ligra = run("d-ligra", app, workload, num_hosts, scale_delta=scale_delta)
            galois = run("d-galois", app, workload, num_hosts, scale_delta=scale_delta)
            rows.append(
                {
                    "input": workload,
                    "app": app,
                    "d-ligra rounds": ligra.num_rounds,
                    "d-galois rounds": galois.num_rounds,
                    "ratio": round(
                        ligra.num_rounds / max(galois.num_rounds, 1), 2
                    ),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------


def metadata_mode_rows(
    num_agreed: int = 4096, value_size: int = 4
) -> List[Dict]:
    """Mode-selection crossover as update density sweeps 0 -> 1 (§4.2)."""
    rows = []
    for density_pct in (0, 1, 2, 5, 10, 20, 30, 50, 75, 90, 99, 100):
        num_updates = num_agreed * density_pct // 100
        mode = select_mode(num_agreed, num_updates, value_size)
        rows.append(
            {
                "density_%": density_pct,
                "updates": num_updates,
                "mode": mode.name,
                "bytes": encoded_size(mode, num_agreed, num_updates, value_size),
            }
        )
    return rows


def headline_summary(scale_delta: int = 0) -> List[Dict]:
    """The paper's headline factors, measured (EXPERIMENTS.md's summary).

    A compact re-measurement: each headline uses one representative
    configuration rather than the full sweep of its source experiment.
    """
    rows: List[Dict] = []

    # ~2.6x from the communication optimizations (§5.6).
    fig10 = fig10_rows(
        scale_delta=scale_delta,
        configs=(
            ("d-galois", "clueweb12s", "cvc", 16),
            ("d-irgl", "twitter40s", "cvc", 4),
        ),
        apps=APPS,
    )
    rows.append(
        {
            "headline": "Gluon optimizations (OSTI vs UNOPT)",
            "paper": "~2.6x",
            "measured": f"{fig10_speedup(fig10):.2f}x",
        }
    )

    # ~3.9x D-Galois over Gemini (§5.3).
    ratios = []
    for app in APPS:
        gemini = run("gemini", app, "clueweb12s", 16, scale_delta=scale_delta)
        dgalois = run(
            "d-galois", app, "clueweb12s", 16, policy="cvc",
            scale_delta=scale_delta,
        )
        ratios.append(gemini.total_time / dgalois.total_time)
    rows.append(
        {
            "headline": "D-Galois vs Gemini",
            "paper": "~3.9x",
            "measured": f"{geomean(ratios):.2f}x",
        }
    )

    # ~1.6x D-IrGL(best policy) over Gunrock (§5.5).
    ratios = []
    for app in APPS:
        gunrock = run("gunrock", app, "twitter40s", 4, scale_delta=scale_delta)
        best = min(
            run(
                "d-irgl", app, "twitter40s", 4, policy=policy,
                scale_delta=scale_delta,
            ).total_time
            for policy in ("oec", "iec", "hvc", "cvc")
        )
        ratios.append(gunrock.total_time / best)
    rows.append(
        {
            "headline": "D-IrGL(best) vs Gunrock",
            "paper": "~1.6x",
            "measured": f"{geomean(ratios):.2f}x",
        }
    )

    # Replication factors at scale (§5.2).
    from repro.engines.gemini import GeminiPartitioner

    edges = load_workload("rmat24s", scale_delta)
    gemini_rep = _partition(
        edges, GeminiPartitioner(), 16
    ).replication_factor()
    cvc_rep = _partition(
        edges, make_partitioner("cvc"), 16
    ).replication_factor()
    rows.append(
        {
            "headline": "replication: Gemini vs CVC (16 hosts)",
            "paper": "4-25 vs 2-8",
            "measured": f"{gemini_rep:.1f} vs {cvc_rep:.1f}",
        }
    )
    return rows


def policy_autotuning_rows(
    scale_delta: int = 0,
    num_hosts: int = 16,
    inputs: Sequence[str] = ("rmat24s", "clueweb12s"),
    apps: Sequence[str] = APPS,
) -> List[Dict]:
    """Best partitioning policy per (app, input) — §3.3's auto-tuning."""
    rows = []
    for workload in inputs:
        for app in apps:
            row: Dict = {"input": workload, "app": app}
            best = None
            for policy in ("oec", "iec", "cvc", "hvc", "jagged"):
                result = run(
                    "d-galois", app, workload, num_hosts, policy=policy,
                    scale_delta=scale_delta,
                )
                row[policy] = round(result.total_time * 1e3, 3)
                if best is None or result.total_time < best[0]:
                    best = (result.total_time, policy)
            row["best"] = best[1]
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Resilience — fault injection + recovery overhead (new subsystem)
# ---------------------------------------------------------------------------

#: Per-app result key for bitwise comparison across recovery modes.
_RESULT_KEY = {"bfs": "dist", "sssp": "dist", "cc": "label", "pr": "rank"}


def resilience_rows(
    scale_delta: int = 0,
    workload: str = "rmat22s",
    num_hosts: int = 4,
    apps: Sequence[str] = ("bfs", "pr"),
) -> List[Dict]:
    """No-fault vs fault+restart vs fault+confined, per application.

    Each faulty run crashes host 1 mid-execution and must still produce a
    result *bitwise identical* to the fault-free run (also oracle-checked);
    the rows report what that survival cost in checkpoints, recovery
    traffic, and simulated time.
    """
    import numpy as np

    from repro.resilience import CrashFault, FaultPlan, ResilienceConfig
    from repro.verify import verify_run

    edges = load_workload(workload, scale_delta)
    network = bench_network("d-galois", num_hosts)
    rows: List[Dict] = []
    for app in apps:
        baseline = run_app(
            "d-galois", app, edges, num_hosts=num_hosts, network=network
        )
        verify_run(baseline, edges)
        key = _RESULT_KEY[app]
        canonical = baseline.executor.gather_result(key)
        crash_round = max(2, baseline.num_rounds // 2)
        plan = FaultPlan(
            crashes=(CrashFault(host=1, round_index=crash_round),), seed=17
        )
        variants = [("no-fault", None, baseline)]
        for mode in ("restart", "confined"):
            config = ResilienceConfig(
                plan=plan,
                checkpoint_every=max(1, crash_round - 1),
                recovery=mode,
            )
            result = run_app(
                "d-galois",
                app,
                edges,
                num_hosts=num_hosts,
                network=network,
                resilience=config,
            )
            verify_run(result, edges)
            values = result.executor.gather_result(key)
            if not np.array_equal(values, canonical):
                raise AssertionError(
                    f"{app} under {mode} recovery diverged from the "
                    "fault-free run"
                )
            variants.append((mode, config, result))
        for label, config, result in variants:
            event = result.recovery_events[0] if result.recovery_events else {}
            rows.append(
                {
                    "app": app,
                    "variant": label,
                    "mode": event.get("mode", "-"),
                    "rounds": result.num_rounds,
                    "crash_round": crash_round if config else "-",
                    "recoveries": result.num_recoveries,
                    "replayed": event.get("replayed_rounds", 0),
                    "time_s": round(result.total_time_resilient, 6),
                    "comm_MB": round(result.communication_volume / 1e6, 3),
                    "recovery_MB": round(result.recovery_bytes / 1e6, 3),
                    "ckpt_MB": round(result.checkpoint_bytes / 1e6, 3),
                    "identical": True,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Ablation — per-peer cross-field message aggregation, derived
# ---------------------------------------------------------------------------


def per_field_rounds(result: RunResult) -> List[Tuple[RoundTraffic, float]]:
    """Per round of ``result``, the ``(traffic, comm_time)`` of a
    per-field wire: each staged sub-message its own message, sent field
    slot ascending; within a field reduce, then broadcast; within a
    phase host ascending; within a host in stage order.  Read off the
    spans of one traced, fault-free, simulated run: each host's staged
    ``(dst, nbytes)`` pairs and the translations ``price_round`` charges."""
    ex = result.executor
    if not ex.tracer.enabled or ex.runtime != "simulated" or ex.fault_injector:
        raise ValueError("derived from a traced, fault-free run of the simulated runtime only")
    staged = defaultdict(lambda: {phase: {} for phase in PHASES})
    translations: Dict[int, Dict[int, int]] = defaultdict(dict)
    for span in ex.tracer.spans:
        phase, _, field = span.name.partition(":")
        if span.cat == "sync-phase" and phase in PHASES:
            staged[span.tags["round"]][phase].setdefault(field, []).extend(
                (span.host, dst, nbytes) for dst, nbytes in span.tags["staged"]
            )
        elif span.name == "sync":
            per_host = translations[span.tags["round"]]
            if span.host in per_host:
                raise ValueError("the tracer holds more than one run's rounds")
            per_host[span.host] = span.tags["translations"]
    rounds = []
    for record in result.rounds:
        phases = staged[record.round_index]
        traffic = RoundTraffic(
            [
                message
                for field in phases["reduce"]
                for phase in PHASES
                for message in phases[phase][field]
            ]
        )
        deltas = translations[record.round_index]
        rounds.append((traffic, price_round(traffic, ex.engines, ex.cost_model, deltas)))
    return rounds


def aggregation_rows(scale_delta: int = 0, hosts: int = 4) -> List[Dict]:
    """Message aggregation vs the per-field wire (:func:`per_field_rounds`
    of the same traced run): bc, cvc, ``hosts`` hosts.  bc's forward sweep
    syncs two fields, its backward sweep one; ``two_field_messages``
    counts the rounds where the two wires differ."""
    result = run_app(
        "d-galois", "bc", load_workload("rmat22s", scale_delta), num_hosts=hosts,
        policy="cvc", observability=Observability(),
    )
    modes = {
        "aggregated": [(r.comm_messages, r.comm_bytes, r.comm_time) for r in result.rounds],
        "per-field": [
            (traffic.num_messages, traffic.total_bytes, comm_time)
            for traffic, comm_time in per_field_rounds(result)
        ],
    }
    two_field = [
        index for index, (aggregated, per_field) in enumerate(zip(*modes.values()))
        if aggregated[0] != per_field[0]
    ]
    return [
        {
            "mode": mode,
            "messages": sum(messages for messages, _, _ in rounds),
            "two_field_messages": sum(rounds[index][0] for index in two_field),
            "sim_comm_us": round(sum(time for _, _, time in rounds) * 1e6, 2),
            "total_bytes": sum(nbytes for _, nbytes, _ in rounds),
        }
        for mode, rounds in modes.items()
    ]
