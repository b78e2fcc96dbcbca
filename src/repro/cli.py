"""Command-line interface: run applications and regenerate experiments.

Examples::

    python -m repro inputs
    python -m repro run --system d-galois --app bfs --workload rmat24s \\
        --hosts 8 --policy cvc
    python -m repro run --system gemini --app pr --workload clueweb12s --hosts 16
    python -m repro run --system d-galois --app bfs --workload rmat22s \\
        --hosts 4 --trace trace.json --metrics metrics.json --json
    python -m repro trace trace.json --top 10
    python -m repro experiment fig10 --scale-delta -1
    python -m repro analyze sssp
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Optional

from repro.analysis import experiments
from repro.analysis.tables import format_table
from repro.apps import runnable_app_names
from repro.apps.specs import PROGRAM_SPECS
from repro.errors import JobSpecError, ReproError
from repro.observability import Observability
from repro.observability.metrics import NULL_METRICS, MetricsRegistry
from repro.options import JobSpec, add_job_flags
from repro.service import BACKENDS, ServiceCache
from repro.systems import plan_run
from repro.workloads import load_workload

#: Experiment harnesses reachable from the CLI, by short name.
EXPERIMENTS: Dict[str, Callable] = {
    "table1": experiments.table1_rows,
    "table2": experiments.table2_rows,
    "table3": experiments.table3_rows,
    "table4": experiments.table4_rows,
    "table5": experiments.table5_rows,
    "fig8": experiments.fig8_series,
    "fig9": experiments.fig9_series,
    "fig10": experiments.fig10_rows,
    "replication": experiments.replication_rows,
    "imbalance": experiments.load_imbalance_rows,
    "rounds": experiments.round_count_rows,
    "metadata": experiments.metadata_mode_rows,
    "policies": experiments.policy_autotuning_rows,
    "resilience": experiments.resilience_rows,
    "aggregation": experiments.aggregation_rows,
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Gluon (PLDI 2018) reproduction: distributed graph analytics "
            "on a simulated cluster."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_cmd = commands.add_parser("run", help="run one application")
    add_job_flags(run_cmd, "run")
    run_cmd.add_argument(
        "--scaled-fabric",
        action="store_true",
        help="use the benchmark harness's scaled network model",
    )
    run_cmd.add_argument(
        "--verify",
        action="store_true",
        help=(
            "check the answer against the app's single-machine oracle "
            "(bitwise for exact runs, within the documented tolerance "
            "for fp16 compression); mismatch flips the exit status"
        ),
    )
    run_cmd.add_argument(
        "--checkpoint-dir",
        default=None,
        help="store checkpoints on disk here instead of in memory "
        "(needs --checkpoint-every)",
    )
    run_cmd.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help=(
            "record spans and export a Chrome trace-event JSON here "
            "(open in chrome://tracing or ui.perfetto.dev)"
        ),
    )
    run_cmd.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help="record metrics and dump them here (.json, or .csv for CSV)",
    )
    run_cmd.add_argument(
        "--json",
        action="store_true",
        help="emit the full RunResult as JSON on stdout (for scripting)",
    )
    run_cmd.add_argument(
        "--per-round",
        action="store_true",
        help="print the per-round breakdown table after the summary",
    )
    run_cmd.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "route partitioning through the service's content-addressed "
            "cache in DIR (reused across runs and by `repro serve`)"
        ),
    )
    run_cmd.add_argument(
        "--stream",
        default=None,
        metavar="FILE",
        help=(
            "after converging, apply this JSON mutation-batch stream and "
            "re-converge incrementally per batch (delta-partitioning + "
            "affected-frontier resumption; simulated runtime only)"
        ),
    )

    mutate_cmd = commands.add_parser(
        "mutate",
        help=(
            "streaming: keep one application converged across a stream "
            "of graph mutation batches"
        ),
    )
    add_job_flags(mutate_cmd, "mutate")
    stream_source = mutate_cmd.add_mutually_exclusive_group(required=True)
    stream_source.add_argument(
        "--stream",
        default=None,
        metavar="FILE",
        help="JSON mutation-batch stream to replay",
    )
    stream_source.add_argument(
        "--generate",
        type=int,
        default=None,
        metavar="N",
        help="generate N seeded random batches against the live graph",
    )
    mutate_cmd.add_argument(
        "--seed", type=int, default=0, help="RNG seed for --generate"
    )
    mutate_cmd.add_argument(
        "--delete-fraction",
        type=float,
        default=0.005,
        help="edges deleted per generated batch (default: 0.5%%)",
    )
    mutate_cmd.add_argument(
        "--insert-fraction",
        type=float,
        default=0.005,
        help="edges inserted per generated batch (default: 0.5%%)",
    )
    mutate_cmd.add_argument(
        "--add-nodes",
        type=int,
        default=0,
        help="fresh vertices added per generated batch",
    )
    mutate_cmd.add_argument(
        "--save",
        default=None,
        metavar="FILE",
        help="write the generated stream to FILE (replayable via --stream)",
    )
    mutate_cmd.add_argument(
        "--verify-cold",
        action="store_true",
        help=(
            "recompute the final version cold from scratch and assert the "
            "streamed results are bitwise identical (exit 1 otherwise)"
        ),
    )
    mutate_cmd.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="service cache the base version's partition is built and run through",
    )
    mutate_cmd.add_argument(
        "--trace", default=None, metavar="FILE",
        help="export a Chrome trace with the streaming spans",
    )
    mutate_cmd.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="dump the metrics registry (incl. streaming_* counters)",
    )
    mutate_cmd.add_argument(
        "--json",
        action="store_true",
        help="emit per-step summaries as JSON on stdout",
    )

    lint_cmd = commands.add_parser(
        "lint",
        help=(
            "check program specs against the sync contract "
            "(derived endpoints + reduction-law checks)"
        ),
    )
    lint_targets = lint_cmd.add_mutually_exclusive_group()
    lint_targets.add_argument(
        "--app",
        choices=runnable_app_names(),
        default=None,
        help="lint one built-in application (default: all of them)",
    )
    lint_targets.add_argument(
        "--module",
        default=None,
        metavar="PATH",
        help=(
            "lint every ProgramSpec bound at a module file's top level, "
            "including one imported by name (a handwritten VertexProgram "
            "is checked at run time: --sanitize)"
        ),
    )
    lint_cmd.add_argument(
        "--dataflow",
        action="store_true",
        help=(
            "also run the GL3xx whole-program dataflow sweep: dead-sync "
            "elimination (GL301), phase fusion (GL302), static sync "
            "hazards (GL304), and tampered endpoints (GL305)"
        ),
    )
    lint_cmd.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable findings on stdout",
    )
    lint_cmd.add_argument(
        "--rules",
        action="store_true",
        help="print the rule catalog (IDs, severities, invariants) and exit",
    )

    exp_cmd = commands.add_parser(
        "experiment", help="regenerate one paper table/figure"
    )
    exp_cmd.add_argument("name", choices=sorted(EXPERIMENTS))
    exp_cmd.add_argument("--scale-delta", type=int, default=None)

    commands.add_parser("inputs", help="show the workload catalog (Table 1)")

    report_cmd = commands.add_parser(
        "report", help="generate the full reproduction report (markdown)"
    )
    report_cmd.add_argument(
        "--output", default=None, help="write the report to this file"
    )
    report_cmd.add_argument(
        "--full",
        action="store_true",
        help="full-scale workloads and sweeps (slower)",
    )

    analyze_cmd = commands.add_parser(
        "analyze",
        help="show an operator's per-strategy synchronization plan (§3.2)",
    )
    analyze_cmd.add_argument("app", choices=sorted(PROGRAM_SPECS))
    analyze_cmd.add_argument(
        "--dataflow",
        action="store_true",
        help=(
            "append the GL3xx whole-program dataflow report: per-strategy "
            "dead sync phases, fusion candidates, and the stabilization "
            "certificate"
        ),
    )
    analyze_cmd.add_argument(
        "--json",
        action="store_true",
        help="with --dataflow, emit the findings as JSON on stdout",
    )

    compile_cmd = commands.add_parser(
        "compile",
        help=(
            "compile a declarative program spec into a generated vertex "
            "program (the §3.3 preprocessor) and verify it"
        ),
    )
    compile_cmd.add_argument("app", choices=sorted(PROGRAM_SPECS))
    compile_cmd.add_argument(
        "--describe",
        action="store_true",
        help="print the spec's phases, derived endpoints, and strategy plan",
    )
    compile_cmd.add_argument(
        "--source",
        action="store_true",
        help="print the generated Python source",
    )
    compile_cmd.add_argument(
        "--optimize",
        action="store_true",
        help=(
            "apply the GL3xx dataflow optimizations (dead-sync "
            "elimination + phase fusion) to the generated code"
        ),
    )

    trace_cmd = commands.add_parser(
        "trace", help="summarize an exported Chrome trace (from run --trace)"
    )
    trace_cmd.add_argument("file", help="trace-event JSON file to summarize")
    trace_cmd.add_argument(
        "--top",
        type=int,
        default=10,
        help="number of span families to rank (default: 10)",
    )

    serve_cmd = commands.add_parser(
        "serve",
        help="run a batch of jobs through the analytics job service",
    )
    serve_cmd.add_argument(
        "batch", help="JSON batch file (list of jobs, or {defaults, jobs})"
    )
    _add_service_flags(serve_cmd)
    serve_cmd.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker pool width for --backend process (default: 1)",
    )
    serve_cmd.add_argument(
        "--backend",
        choices=BACKENDS,
        default="serial",
        help="worker pool backend (default: serial)",
    )
    serve_cmd.add_argument(
        "--max-pending",
        type=int,
        default=None,
        help="queue capacity (default: fits the batch)",
    )
    serve_cmd.add_argument(
        "--json",
        action="store_true",
        help="emit results + service stats as JSON on stdout",
    )
    serve_cmd.add_argument(
        "--stream",
        default=None,
        metavar="FILE",
        help=(
            "live-graph serving: keep every job in the batch converged "
            "across this mutation-batch stream (requires --backend serial; "
            "jobs over the same graph share the base version's partition)"
        ),
    )

    submit_cmd = commands.add_parser(
        "submit",
        help="submit one job to the service (cache-aware single run)",
    )
    add_job_flags(submit_cmd, "submit")
    _add_service_flags(submit_cmd)
    submit_cmd.add_argument(
        "--json",
        action="store_true",
        help="emit the job result as JSON on stdout",
    )
    return parser


def _add_service_flags(cmd: argparse.ArgumentParser) -> None:
    """Flags shared by the service-backed subcommands."""
    cmd.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "persist the two-level cache (partitions + results) in DIR; "
            "default: in-memory for the process lifetime"
        ),
    )


def _validate_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Reject malformed flag values with a friendly parser error."""
    if args.command == "run" and args.stream is not None:
        # Per-run outputs have no per-version meaning in a live session
        # (what a session refuses of the *job* is repro.options.REFUSALS').
        for flag, given in (
            ("--checkpoint-dir", args.checkpoint_dir is not None),
            (
                "--verify (repro mutate --verify-cold checks a stream "
                "against a cold recompute)",
                args.verify,
            ),
            ("--per-round", args.per_round),
        ):
            if given:
                parser.error(f"--stream is incompatible with {flag}")
    if args.command == "run" and args.checkpoint_dir is not None:
        # Round 0 is rebuilt from the input, never stored: without a
        # cadence no snapshot would ever be written.
        if not getattr(args, "checkpoint_every", 0):
            parser.error("--checkpoint-dir needs --checkpoint-every")
    if args.command == "serve":
        if args.workers < 1:
            parser.error(f"--workers must be at least 1, got {args.workers}")
        if args.max_pending is not None and args.max_pending < 1:
            parser.error(
                f"--max-pending must be at least 1, got {args.max_pending}"
            )
        if args.stream is not None and args.backend != "serial":
            parser.error(
                "--stream keeps live executors between versions; "
                "it requires --backend serial"
            )
    elif args.command == "mutate":
        if args.generate is not None and args.generate < 1:
            parser.error(
                f"--generate must be at least 1 batch, got {args.generate}"
            )
        for name in ("delete_fraction", "insert_fraction"):
            if not 0.0 <= getattr(args, name) <= 1.0:
                parser.error(
                    f"--{name.replace('_', '-')} must be in [0, 1], "
                    f"got {getattr(args, name)}"
                )
        if args.add_nodes < 0:
            parser.error(f"--add-nodes must be >= 0, got {args.add_nodes}")
        if args.save is not None and args.generate is None:
            parser.error("--save only applies to --generate")


def _spec(parser: argparse.ArgumentParser, args: argparse.Namespace) -> JobSpec:
    """The job a subcommand's generated flags name; a value or a
    combination the option table refuses is a usage error."""
    try:
        return JobSpec.from_args(args)
    except JobSpecError as exc:
        parser.error(str(exc))


def _observability_and_cache(args: argparse.Namespace, streaming: bool):
    """The ``(observability, cache)`` pair ``--trace/--metrics/--cache-dir`` ask for.

    A streaming command reads its cache's turnover counters back (the
    ``--metrics`` export, ``mutate --json``), so there the cache counts
    into a live registry; a plain run's cache stays uncounted.
    """
    observability = None
    if args.trace is not None or args.metrics is not None:
        observability = Observability()
    cache = None
    if args.cache_dir is not None:
        metrics = NULL_METRICS
        if streaming:
            metrics = observability.metrics if observability else MetricsRegistry()
        cache = ServiceCache(directory=args.cache_dir, metrics=metrics)
    return observability, cache


def _emit(args: argparse.Namespace, document, tables, lines=()) -> None:
    """One output policy for every reporting subcommand.

    ``--json``: ``document`` (serialized here unless already a string) is
    the entire stdout.  Otherwise the ``(title, rows)`` tables, then the
    ``(label, value)`` lines in the ``label : value`` column layout (a
    plain string prints as is).
    """
    if args.json:
        if not isinstance(document, str):
            document = json.dumps(document, indent=2)
        print(document)
        return
    for title, rows in tables:
        print(format_table(rows, title=title))
    for line in lines:
        if not isinstance(line, str):
            line = f"{line[0]:<19}: {line[1]}"
        print(line)


def _command_run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """``run`` and ``mutate``: one job, through a ``RunPlan`` or a live session."""
    spec = _spec(parser, args)
    streaming = args.command == "mutate" or args.stream is not None
    edges = load_workload(spec.workload, spec.scale_delta)
    observability, cache = _observability_and_cache(args, streaming)
    on_run = args.command == "run"  # ``mutate`` lacks the deployment flags
    options = spec.run_options(checkpoint_dir=args.checkpoint_dir if on_run else None)
    options["observability"] = observability
    if on_run and args.scaled_fabric:
        options["network"] = experiments.bench_network(spec.system, spec.hosts)
    if streaming:
        return _command_stream(args, parser, spec, edges, options, cache)
    try:
        plan = plan_run(spec.system, spec.app, edges, spec.hosts, **options)
    except ReproError as exc:  # a refused combination: exit 2, no traceback
        parser.error(str(exc))
    result = plan.run(cache)
    _export_observability(args, result, observability)
    for doc in result.sanitizer_findings:
        print(
            f"sanitizer: {doc['rule']} [{doc.get('field', '-')}] "
            f"{doc['message']}",
            file=sys.stderr,
        )
    verification = None
    if args.verify:
        from repro.verify import VerificationError, verify_run

        try:
            verification = verify_run(result, edges, raise_on_mismatch=False)
        except VerificationError as exc:
            parser.error(str(exc))
    mismatch = verification is not None and not verification.matched
    if args.json and mismatch:
        detail = verification.detail or "values differ"
        print(
            f"verification MISMATCH: {detail} "
            f"(max |err| {verification.max_abs_error:.3g})",
            file=sys.stderr,
        )
    lines = []
    if cache is not None:
        status = "hit" if result.partition_cache_hit else "miss"
        lines.append(("partition cache", f"{status} ({args.cache_dir})"))
    lines += [
        ("replication factor", f"{result.replication_factor:.3f}"),
        ("construction", f"{result.construction_time*1e3:.2f} ms, "
                         f"{result.construction_bytes/1e3:.1f} KB exchanged"),
        ("load imbalance", f"{result.load_imbalance():.2f} (max/mean)"),
    ]
    if result.runtime != "simulated":
        wall_ms = result.wall_rounds_s * 1e3
        lines.append(("runtime", f"{result.runtime}, {wall_ms:.1f} ms measured wall in rounds"))
    if result.translations:
        lines.append(("address translations", result.translations))
    if result.num_checkpoints:
        lines.append(("checkpoints", f"{result.num_checkpoints} taken, "
                                     f"{result.checkpoint_bytes/1e3:.1f} KB, "
                                     f"{result.checkpoint_time*1e3:.2f} ms"))
    for event in result.recovery_events:
        lines.append(("recovery", f"round {event['round']} "
                                  f"hosts={event['hosts']} mode={event['mode']} "
                                  f"restored_round={event['restored_round']} "
                                  f"{event['recovery_bytes']/1e3:.1f} KB"))
    if args.per_round:
        from repro.observability import round_table

        lines.append("\n" + round_table(result)[:-1])
    if spec.sanitize and not result.sanitizer_findings:
        lines.append(("sanitizer", "clean (no contract violations)"))
    if verification is not None:
        verdict = "matched" if verification.matched else "MISMATCH"
        line = f"{verdict} (max |err| {verification.max_abs_error:.3g})"
        if verification.detail:
            line += f" — {verification.detail}"
        lines.append(("oracle verification", line))
    document = result.to_json() if args.json else None
    _emit(args, document, [("run summary", [result.summary()])], lines)
    return 1 if result.sanitizer_findings or mismatch else 0


def _stream_step_row(step) -> Dict:
    """One mutation step as a summary-table row."""
    hosts = step.hosts_reused + step.hosts_rebuilt
    return {
        "version": step.version,
        "strategy": step.strategy,
        "affected": step.affected_count,
        "frontier": step.frontier_count,
        "reused": f"{step.hosts_reused}/{hosts}",
        "rounds": step.result.num_rounds,
        "comm KB": f"{step.result.communication_volume / 1e3:.1f}",
        "constr KB": f"{step.result.construction_bytes / 1e3:.1f}",
    }


def _emit_stream(args, session, base, steps, **extra) -> None:
    """Shared report of the streaming commands (``extra``: more JSON keys;
    ``mutate``'s ``verify`` verdict also closes the text form)."""
    document = {
        "base": base.summary(),
        "steps": [step.to_dict() for step in steps],
        **extra,
    }
    tables = [
        ("base run (version 0)", [base.summary()]),
        ("mutation stream", [_stream_step_row(step) for step in steps]),
    ]

    def total(attribute: str) -> int:
        return sum(getattr(step, attribute) for step in steps)

    version = session.version
    lines = [
        ("final version", f"{version.version} ({version.content_hash[:16]}…)"),
        ("host partitions", f"{total('hosts_reused')} reused warm, "
                            f"{total('hosts_rebuilt')} rebuilt"),
    ]
    verify = extra.get("verify")
    if verify is not None:
        streamed = sum(step.result.num_rounds for step in steps)
        lines.append(("cold recompute", f"{verify['cold_rounds']} rounds/version "
                                        f"vs {streamed / max(len(steps), 1):.1f} streamed "
                                        "rounds/version"))
        lines.append(("bitwise vs cold", "identical" if verify["identical"] else "MISMATCH"))
    _emit(args, document, tables, lines)


def _verify_cold(session) -> Dict:
    """Cold-recompute the current version and diff it bitwise."""
    import numpy as np

    cold = session.cold_run()
    cold_values = session.cold_values(cold)
    warm_values = session.values()
    identical = set(cold_values) == set(warm_values) and all(
        np.array_equal(cold_values[key], warm_values[key])
        for key in cold_values
    )
    return {
        "identical": bool(identical),
        "cold_rounds": cold.num_rounds,
        "cold_comm_bytes": cold.communication_volume,
        "cold_comm_messages": cold.communication_messages,
        "cold_construction_bytes": cold.construction_bytes,
    }


def _command_stream(args, parser, spec, edges, options, cache) -> int:
    """``run --stream`` and ``mutate``: converge, stream the batches, report.

    ``mutate`` adds what only it declares: generated batches, ``--save``,
    the ``--verify-cold`` verdict and the cache statistics.
    """
    from repro.errors import ReproError
    from repro.streaming import (
        StreamingSession,
        load_batches,
        random_mutation_batch,
        save_batches,
    )
    from repro.utils.rng import make_rng

    try:
        batches = load_batches(args.stream) if args.stream is not None else None
        session = StreamingSession(
            spec.system, spec.app, edges, spec.hosts, cache=cache, **options
        )
        base = session.run()
        if batches is not None:
            steps = session.replay(batches)
        else:
            rng = make_rng(args.seed)
            batches, steps = [], []
            for _ in range(args.generate):
                batches.append(random_mutation_batch(
                    session.version.edges,
                    rng,
                    delete_fraction=args.delete_fraction,
                    insert_fraction=args.insert_fraction,
                    add_nodes=args.add_nodes,
                ))
                steps.append(session.apply_batch(batches[-1]))
    except (ReproError, OSError) as exc:
        parser.error(str(exc))
    extra = {}
    if args.command == "mutate":
        if args.save is not None:  # validated: only with --generate
            save_batches(batches, args.save)
            print(f"stream written to {args.save}", file=sys.stderr)
        extra["verify"] = _verify_cold(session) if args.verify_cold else None
        extra["cache"] = None if cache is None else cache.stats()
    _export_observability(args, base, options["observability"])
    _emit_stream(args, session, base, steps, **extra)
    verify = extra.get("verify")
    return 1 if verify is not None and not verify["identical"] else 0


def _export_observability(args, result, observability) -> None:
    """Write the requested trace/metrics files; notes go to stderr."""
    if observability is None:
        return
    from repro.observability import write_chrome_trace, write_metrics

    if args.trace is not None:
        write_chrome_trace(
            observability.tracer,
            args.trace,
            run_info={
                "system": result.system,
                "app": result.app,
                "policy": result.policy,
                "hosts": result.num_hosts,
            },
        )
        print(f"trace written to {args.trace}", file=sys.stderr)
    if args.metrics is not None:
        write_metrics(observability.metrics, args.metrics)
        print(f"metrics written to {args.metrics}", file=sys.stderr)


def _command_lint(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    from repro.analysis.findings import (
        RULES,
        has_errors,
        render_json,
        render_text,
    )
    from repro.analysis.linter import run_lint
    from repro.errors import LintError

    if args.rules:
        for rule in RULES.values():
            print(f"{rule.rule_id}  {rule.severity:>7}  {rule.title}")
            print(f"    {rule.invariant}")
        return 0
    try:
        targets, findings = run_lint(
            app=args.app,
            module=args.module,
            dataflow=args.dataflow,
        )
    except LintError as exc:
        parser.error(str(exc))
    if args.json:
        print(render_json(findings, targets))
    else:
        print(f"linting: {', '.join(targets)}")
        print(render_text(findings), end="")
    return 1 if has_errors(findings) else 0


def _command_trace(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.observability import render_summary
    from repro.observability.summary import TraceFileError

    if args.top < 1:
        parser.error(f"--top must be at least 1, got {args.top}")
    try:
        print(render_summary(args.file, limit=args.top), end="")
    except TraceFileError as exc:
        parser.error(str(exc))
    return 0


def _command_experiment(args: argparse.Namespace, _parser=None) -> int:
    harness = EXPERIMENTS[args.name]
    kwargs = {}
    if args.scale_delta is not None:
        if args.name == "metadata":
            print(
                "note: --scale-delta does not apply to 'metadata'",
                file=sys.stderr,
            )
        else:
            kwargs["scale_delta"] = args.scale_delta
    rows = harness(**kwargs)
    print(format_table(rows, title=args.name))
    if args.name == "fig10":
        print(
            f"geomean OSTI speedup over UNOPT: "
            f"{experiments.fig10_speedup(rows):.2f}x (paper: ~2.6x)"
        )
    return 0


def _command_inputs(_args: argparse.Namespace, _parser=None) -> int:
    rows = experiments.table1_rows()
    print(format_table(rows, title="workload catalog (Table 1 stand-ins)"))
    return 0


def _command_analyze(args: argparse.Namespace, _parser=None) -> int:
    # One source of truth: the same spec registry that backs
    # ``repro run <app>`` and ``repro compile``.
    from repro.apps.specs import spec_for
    from repro.compiler.analysis import describe_program

    spec = spec_for(args.app)
    if not args.dataflow:
        print(describe_program(spec))
        return 0
    from repro.analysis.dataflow import (
        analyze_spec,
        certify_spec,
        dead_sync_table,
        fusion_candidates,
        graph_from_spec,
    )
    from repro.analysis.findings import (
        has_errors,
        render_json,
        render_text,
    )

    findings = analyze_spec(spec)
    if args.json:
        print(render_json(findings, [args.app]))
        return 1 if has_errors(findings) else 0
    print(describe_program(spec))
    print("whole-program dataflow (GL3xx)")
    graph = graph_from_spec(spec)
    table = dead_sync_table(graph)
    if table:
        for strategy in sorted(table):
            for wire, phases in sorted(table[strategy].items()):
                print(
                    f"  dead under {strategy}: {wire} "
                    f"[{', '.join(phases)}]"
                )
    else:
        print("  no provably dead sync phases")
    for a, b in fusion_candidates(graph):
        print(f"  fusible phases: {a.name} + {b.name} (one gather)")
    cert = certify_spec(spec)
    verdict = (
        "certified"
        if cert.self_stabilizing
        else f"denied ({', '.join(cert.reasons)})"
    )
    print(f"  self-stabilization: {verdict}")
    print(render_text(findings), end="")
    return 1 if has_errors(findings) else 0


def _command_compile(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    from repro.analysis.findings import has_errors, render_text
    from repro.apps.specs import spec_for
    from repro.compiler.analysis import describe_program
    from repro.compiler.program_codegen import compile_program, verify_compiled
    from repro.compiler.spec import CompileError

    spec = spec_for(args.app)
    if args.describe:
        print(describe_program(spec))
        return 0
    try:
        app = compile_program(spec, optimize=args.optimize)
    except CompileError as exc:
        parser.error(str(exc))
    if args.source:
        print(app.__class__.generated_source, end="")
        return 0
    findings = verify_compiled(app.__class__)
    source_lines = len(app.__class__.generated_source.splitlines())
    print(
        f"compiled {spec.name} -> {app.name}: {len(spec.phases)} phase(s), "
        f"{len(spec.fields)} field(s), {source_lines} generated lines"
    )
    print(render_text(findings), end="")
    return 1 if has_errors(findings) else 0


def _command_serve(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    from repro.errors import ServiceError
    from repro.service import ServiceConfig, load_batch, serve_batch

    if args.stream is not None:
        return _command_serve_stream(args, parser)
    try:
        specs = load_batch(args.batch)
        config = ServiceConfig(
            workers=args.workers,
            backend=args.backend,
            max_pending=(
                args.max_pending
                if args.max_pending is not None
                else max(len(specs), 1)
            ),
            cache_dir=args.cache_dir,
        )
        results, service, wall = serve_batch(specs, config=config)
    except ServiceError as exc:
        parser.error(str(exc))
    stats = service.stats()
    throughput = len(results) / wall if wall > 0 else 0.0
    jobs = stats["jobs"]
    _emit(
        args,
        {
            "results": [result.to_dict() for result in results],
            "stats": stats,
            "wall_s": wall,
            "jobs_per_s": throughput,
        },
        [("serve summary", [r.row() for r in results])],
        [
            ("jobs", f"{jobs['completed']} ok, "
                     f"{jobs['failed']} failed, {jobs['retries']} retries"),
            ("cache", f"{jobs['result_cache_hits']} result hit(s), "
                      f"{jobs['partition_cache_hits']} partition hit(s)"),
            ("throughput", f"{throughput:.1f} jobs/s "
                           f"({wall*1e3:.1f} ms wall, backend={args.backend}, "
                           f"workers={args.workers})"),
        ],
    )
    return 0 if args.json or all(r.status == "ok" for r in results) else 1


def _command_serve_stream(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    """Live-graph serving: every batch job stays converged across a stream.

    One streaming session per job spec, all sharing one service cache:
    jobs with identical inputs share the base version's partition; later
    versions reuse each session's in-memory partitions of untouched hosts.
    """
    from repro.errors import ReproError, ServiceError
    from repro.service import load_batch
    from repro.streaming import StreamingSession, load_batches

    try:
        specs = load_batch(args.batch)
        batches = load_batches(args.stream)
    except (ServiceError, ReproError, OSError) as exc:
        parser.error(str(exc))
    cache = ServiceCache(directory=args.cache_dir, metrics=MetricsRegistry())
    rows = []
    docs = []
    for spec in specs:
        row = {
            "job": spec.job_id, "app": spec.app, "workload": spec.workload,
            "status": "failed", "versions": 0, "rounds": 0, "reused": 0, "rebuilt": 0,
        }
        doc = {"job": spec.job_id, "status": "failed"}
        rows.append(row)
        docs.append(doc)
        try:
            edges = load_workload(spec.workload, spec.scale_delta)
            session = StreamingSession(
                spec.system, spec.app, edges, spec.hosts,
                cache=cache, **spec.run_options(),
            )
            base = session.run()
            steps = session.replay(batches)
        except (ReproError, ValueError) as exc:
            doc["error"] = f"{type(exc).__name__}: {exc}"
            continue
        row.update(
            status="ok",
            versions=1 + len(steps),
            rounds=base.num_rounds + sum(step.result.num_rounds for step in steps),
            reused=sum(step.hosts_reused for step in steps),
            rebuilt=sum(step.hosts_rebuilt for step in steps),
        )
        doc.update(
            status="ok",
            base=base.summary(),
            steps=[step.to_dict() for step in steps],
        )
    _emit(
        args,
        {"jobs": docs, "stats": cache.stats()},
        [("live-graph serve summary", rows)],
        [(
            "host partitions",
            f"{sum(row['reused'] for row in rows)} reused warm, "
            f"{sum(row['rebuilt'] for row in rows)} rebuilt",
        )],
    )
    return 1 if any(doc["status"] == "failed" for doc in docs) else 0


def _command_submit(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    from repro.errors import ServiceError
    from repro.service import execute_job

    # What no attempt can run is a usage error here, not a failed job.
    spec = _spec(parser, args)
    try:
        cache = ServiceCache(directory=args.cache_dir)
        result = execute_job(spec, cache=cache)
    except ServiceError as exc:
        parser.error(str(exc))
    lines = []
    if result.status != "ok":
        lines.append(("error", result.error))
    lines.append(("result cache", result.result_cache))
    lines.append(("partition cache", result.partition_cache))
    if result.output_digest:
        lines.append(("output digest", f"{result.output_digest[:16]}…"))
    _emit(
        args, result.to_dict(), [(f"job {result.job_id}", [result.row()])], lines
    )
    return 0 if args.json or result.status == "ok" else 1


def _command_report(args: argparse.Namespace, _parser=None) -> int:
    from repro.analysis.report import generate_report

    text = generate_report(output_path=args.output, quick=not args.full)
    if args.output:
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate_args(parser, args)
    handlers = {
        "run": _command_run,
        "mutate": _command_run,
        "lint": _command_lint,
        "experiment": _command_experiment,
        "inputs": _command_inputs,
        "analyze": _command_analyze,
        "compile": _command_compile,
        "report": _command_report,
        "trace": _command_trace,
        "serve": _command_serve,
        "submit": _command_submit,
    }
    try:
        return handlers[args.command](args, parser)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        import os

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
