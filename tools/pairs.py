#!/usr/bin/env python3
"""Paired parent/change measurement of one benchmark workload.

    python tools/pairs.py PARENT CHANGE --workload W [--workload W2 ...] \\
        --seed S --pairs N [--seconds X] [--trace 0|1] [--out FILE]

``PARENT`` and ``CHANGE`` are git revisions.  Each is exported with
``git archive`` into a temporary directory, and each pair runs both
exports' own ``benchmarks/perf/bench.py --workload W --seed S --seconds X
--trace T`` once, alternating which side runs first.  The JSON document
written to ``--out`` (default: stdout) holds, per workload and metric, every pair's
two values, each side's median and quartiles, how many pairs the change
won, and two verdicts: ``clears_iqr`` (the change's median is better
than the parent's by more than the parent's interquartile range) and
``spread_exceeds_bound`` (either side's own range, relative to its
median, is wider than the metric's ``BENCHMARK.json`` bound — a bimodal
metric cannot be judged by pairs).  ``--trace 1`` measures the traced
per-layer metrics instead of the end-to-end ones.

Per-process scatter on a shared box is several percent, so one run per
side proves nothing; a claim wants at least ten pairs on a seed the
change was not tuned on.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path("benchmarks") / "perf" / "bench.py"


def export(revision: str, dest: Path) -> str:
    """Extract ``revision``'s tree into ``dest``; returns its commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{revision}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def result_line(stdout: str) -> Dict[str, Optional[float]]:
    """The metric values of a ``bench.py --workload`` run's last line."""
    document = json.loads(stdout.strip().splitlines()[-1])
    if not document.get("correct", False):
        raise RuntimeError(f"bench run failed: {document}")
    return {name: entry["value"] for name, entry in document["metrics"].items()}


def run_bench(tree: Path, workload: str, args) -> Dict[str, Optional[float]]:
    """One ``bench.py --workload`` run inside an exported tree."""
    command = [
        sys.executable, str(BENCH), "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} in {tree} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return result_line(done.stdout)


def _quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(pairs: List[Dict[str, Dict]], spec: Dict) -> Dict[str, Dict]:
    """Per metric: the paired values and the verdicts (no timing here).

    ``pairs`` is one ``{"parent": {metric: value}, "change": {...}}`` per
    pair; ``spec`` is ``BENCHMARK.json``, whose ``better`` directions and
    end-to-end ``bound`` s apply.  A metric any run reported as ``None``
    (a layer the tracer could not find) is summarized over the pairs that
    have both values.
    """
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {}
    for name in pairs[0]["parent"] if pairs else ():
        meta = declared.get(name, {"better": "lower"})
        lower = meta["better"] == "lower"
        both = [
            (p["parent"][name], p["change"][name]) for p in pairs
            if p["parent"].get(name) is not None and p["change"].get(name) is not None
        ]
        if not both:
            continue
        parent = [a for a, _ in both]
        change = [b for _, b in both]
        sides = {}
        for side, values in (("parent", parent), ("change", change)):
            median = statistics.median(values)
            q1, _, q3 = _quartiles(values)
            spread = (max(values) - min(values)) / median if median else 0.0
            sides[side] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
        gain = sides["parent"]["median"] - sides["change"]["median"]
        if not lower:
            gain = -gain
        iqr = sides["parent"]["q3"] - sides["parent"]["q1"]
        bound = meta.get("bound")
        metrics[name] = {
            "better": meta["better"],
            "bound": bound,
            "pairs": [list(pair) for pair in both],
            **sides,
            "change_pct": (
                100.0 * (sides["change"]["median"] / sides["parent"]["median"] - 1.0)
                if sides["parent"]["median"] else None
            ),
            "wins": sum((b < a) if lower else (b > a) for a, b in both),
            "losses": sum((b > a) if lower else (b < a) for a, b in both),
            "clears_iqr": gain > iqr,
            "spread_exceeds_bound": bound is not None and any(
                sides[side]["spread"] > bound for side in sides
            ),
        }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="parent revision")
    parser.add_argument("change", help="changed revision")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the JSON here (default: stdout)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory(prefix="pairs-") as scratch:
        trees = {side: Path(scratch) / side for side in ("parent", "change")}
        commits = {side: export(getattr(args, side), tree) for side, tree in trees.items()}
        workloads = {}
        started = time.time()
        for workload in args.workload:
            pairs = []
            for index in range(args.pairs):
                order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
                pair = {side: run_bench(trees[side], workload, args) for side in order}
                pairs.append({"first": order[0], **pair})
                print(f"{workload}: pair {index + 1}/{args.pairs} done "
                      f"({time.time() - started:.0f} s)", file=sys.stderr)
            workloads[workload] = {"runs": pairs, "metrics": summarize(pairs, spec)}
    document = {
        "tool": "tools/pairs.py",
        "seed": args.seed,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "trace": args.trace,
        "parent": commits["parent"],
        "change": commits["change"],
        "workloads": workloads,
    }
    text = json.dumps(document, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
