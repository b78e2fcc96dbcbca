#!/usr/bin/env python3
"""The repo benchmark: five workloads, end-to-end metrics, layer profile.

Three ways to run it (details in README.md next to this file):

* ``bench.py --workload NAME --seed N --seconds S --trace 0|1`` measures
  one workload in this process and prints one JSON object as the last
  line — the contract ``BENCHMARK.json`` describes.
* ``bench.py [--seed N] [--quick] [--stability] [--out FILE]`` runs all
  five workloads, each in a fresh child process, one at a time, and
  prints every metric with unit, value (undisturbed estimate) / median / max / n
  and its bound.
* ``bench.py --compare OLD.json NEW.json`` checks NEW against OLD with
  the bounds of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

# One compute thread: the box has two shared cores and the workloads are
# single-threaded numpy; a BLAS/OpenMP pool would only add noise.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"

#: Repeat floors: the full suite, a ``--seconds`` run, a ``--quick`` run.
SUITE_REPEATS, TIMED_REPEATS, QUICK_REPEATS = 7, 5, 2
#: The suite also measures each workload at least this long (half timed,
#: half traced): seven repeats of a 0.7 s job fit inside one noise burst.
SUITE_SECONDS = 24

#: End-to-end metrics the suite reports beyond those ``BENCHMARK.json``
#: bounds: they are exact for a fixed seed but vary (rounds, messages on
#: ``cc_setup``) or are zero (``error_rate``) across seeds.
SUITE_ONLY_UNITS = {"comm_messages": "count", "rounds": "count", "error_rate": "failed/attempted"}
EXACT = ("comm_bytes", "comm_messages", "construction_bytes", "rounds", "sim_time_s", "error_rate")


def load_spec() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _descendants() -> Dict[int, int]:
    """Every live process below this one: pid -> parent pid."""
    parent_of = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:  # ended while we were listing
                continue
            # "pid (comm) state ppid ...": comm may itself hold ")" or " ".
            parent_of[int(entry)] = int(stat.rpartition(")")[2].split()[1])
    found: Dict[int, int] = {}
    frontier = {os.getpid()}
    while frontier:
        below = {pid: ppid for pid, ppid in parent_of.items() if ppid in frontier}
        found.update(below)
        frontier = set(below)
    return found


def stop_children() -> None:
    """Stop every process this one started; return once each has ended.

    The process runtime joins its own workers, but the shared-memory
    stores it exports start multiprocessing's resource tracker, which
    only ends some time *after* its parent has — so it is stopped here,
    by closing its pipe and waiting.  Whatever else is still below this
    process (workers of a job that raised half-way) is killed and
    reaped, so no path out of the benchmark leaves a process behind.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except OSError:
            pass
    left = _descendants()
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 30.0
    for pid, ppid in left.items():
        if ppid == os.getpid():
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # reaped by its own handle already
                pass
        while Path("/proc", str(pid)).exists() and time.monotonic() < deadline:
            time.sleep(0.01)  # a grandchild: init reaps it


def _number(value) -> float:
    # The driver's JSON line carries numbers only: a layer this run
    # cannot observe reads 0 there and null in the suite report.
    return 0.0 if value is None else value


def run_workload(args) -> int:
    """Contract mode: measure one workload here, print the result line."""
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench.py: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import BY_NAME, measure

    spec = load_spec()
    if args.repeats is None:
        args.repeats = QUICK_REPEATS if args.quick else TIMED_REPEATS
    report = measure(
        BY_NAME[args.workload], args.seed, args.seconds, args.repeats,
        trace=bool(args.trace), quick=args.quick,
    )
    for line in report["warnings"]:
        print(f"warning: {line}", file=sys.stderr)
    if len(report["end_to_end"]) == 1:
        print("bench.py: every repeat failed; nothing to report", file=sys.stderr)
        return 1
    print_report(report, spec)
    print(json.dumps(report))
    if args.trace:
        metrics = {
            m["name"]: {"value": _number(report["per_layer"].get(m["name"])), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": report["end_to_end"][m["name"]]["value"], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0 if report["failed"] == 0 else 1


def print_report(report: Dict, spec: Dict) -> None:
    """Every metric by name: unit, value / median / max / n, and its bound."""
    bounds = {m["name"]: (m["unit"], m["bound"]) for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    print(
        f"== {report['workload']}  seed={report['seed']}  "
        f"{report['nodes']} nodes / {report['edges']} edges"
        f"{'  [quick]' if report['quick'] else ''}"
    )
    for name, s in report["end_to_end"].items():
        unit, bound = bounds.get(name, (SUITE_ONLY_UNITS.get(name, ""), 0))
        gate = "exact for a fixed seed" if name in EXACT else f"bound {bound:.0%}"
        print(
            f"  {name:<28} {s['value']:>16.6g} {unit:<16} "
            f"median {s['median']:.6g}  max {s['max']:.6g}  n={s['n']}  ({gate})"
        )
    for name, value in report.get("per_layer", {}).items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<28} {shown:>16} {units.get(name, '')}")


def environment() -> Dict:
    import numpy

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": model,
    }


def run_suite(args) -> Dict:
    """All five workloads, one fresh child process each, one at a time."""
    spec = load_spec()
    env = environment()
    if env["loadavg"][0] > env["nproc"]:
        print(
            f"warning: 1-min load {env['loadavg'][0]:.2f} exceeds nproc "
            f"{env['nproc']}; timings will be noisy", file=sys.stderr,
        )
    repeats = args.repeats or (QUICK_REPEATS if args.quick else SUITE_REPEATS)
    workloads = {}
    for entry in spec["workloads"]:
        command = [
            sys.executable, str(HERE / "bench.py"), "--workload", entry["name"],
            "--seed", str(args.seed), "--repeats", str(repeats), "--trace", "1",
        ] + (["--quick"] if args.quick else ["--seconds", str(SUITE_SECONDS)])
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        if len(lines) < 2:
            raise SystemExit(f"bench.py: workload {entry['name']} produced no report")
        print("\n".join(lines[:-2]))
        workloads[entry["name"]] = json.loads(lines[-2])
    env["loadavg_end"] = list(os.getloadavg())
    return {
        "quick": args.quick,
        "seed": args.seed,
        "repeats": repeats,
        "environment": env,
        "workloads": workloads,
    }


def compare(old: Dict, new: Dict, symmetric: bool) -> List[str]:
    """Where ``new`` breaks a bound against ``old`` (empty = agrees).

    Exact metrics must be equal (same seed assumed); the others may be
    worse than ``old`` by at most their ``BENCHMARK.json`` bound.  With
    ``symmetric`` (two sets of the same code) better-by-more counts too.
    """
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    problems = []
    if old["seed"] != new["seed"] or old["quick"] != new["quick"]:
        problems.append("the two sets differ in seed or scale; exact metrics cannot match")
    for name, before in old["workloads"].items():
        after = new["workloads"].get(name)
        if after is None:
            problems.append(f"{name}: missing from the new set")
            continue
        for metric, a in before["end_to_end"].items():
            b = after["end_to_end"].get(metric)
            if b is None:
                problems.append(f"{name}.{metric}: missing from the new set")
            elif metric in EXACT:
                if a["value"] != b["value"]:
                    problems.append(f"{name}.{metric}: {a['value']} -> {b['value']} (exact)")
            else:
                bound = bounds[metric]["bound"]
                sign = 1.0 if bounds[metric]["better"] == "lower" else -1.0
                change = sign * (b["value"] - a["value"]) / a["value"]
                if change > bound or (symmetric and -change > bound):
                    problems.append(
                        f"{name}.{metric}: {a['value']:.6g} -> {b['value']:.6g} "
                        f"({change:+.1%}, bound {bound:.0%})"
                    )
    return problems


def write_out(path: str, document: Dict) -> None:
    target = Path(path).resolve()
    if document["quick"] and RESULTS in target.parents:
        raise SystemExit(f"bench.py: refusing to record a --quick run under {RESULTS}")
    target.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {target}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="measure only this workload, in this process")
    parser.add_argument("--seed", type=int, default=1, help="generator seed / source choice")
    parser.add_argument("--seconds", type=float, default=0.0, help="measure at least this long")
    parser.add_argument("--repeats", type=int, help="repeat floor (default 7; 5 with --seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="scale -3, 2 repeats (smoke only)")
    parser.add_argument("--stability", action="store_true", help="run two sets, compare them")
    parser.add_argument("--out", help="write the suite report here as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    finally:
        stop_children()


def _dispatch(args) -> int:
    if args.compare:
        old, new = (json.loads(Path(p).read_text()) for p in args.compare)
        problems = compare(old, new, symmetric=False)
    elif args.workload:
        return run_workload(args)
    else:
        document = run_suite(args)
        problems = []
        if args.stability:
            second = run_suite(args)
            problems = compare(document, second, symmetric=True)
            document["stability"] = {"second_set": second, "problems": problems}
        if args.out:
            write_out(args.out, document)
        problems += [
            f"{name}: error_rate {report['failed']}/{report['attempted']}"
            for name, report in document["workloads"].items()
            if report["failed"]
        ]
    for line in problems:
        print(f"FAIL {line}")
    print("benchmark: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
