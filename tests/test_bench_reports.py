"""The committed ``BENCH_*.json`` reports at the repository root share
one schema — the perf suite's (``benchmarks/perf/bench.py --out``) — so
``bench.py --compare`` can read any two of them."""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPORT_KEYS = {"quick", "seed", "repeats", "environment", "workloads"}


def test_root_reports_have_the_perf_suite_schema():
    reports = sorted(ROOT.glob("BENCH_*.json"))
    assert reports, "no committed perf report at the repository root"
    for report in reports:
        doc = json.loads(report.read_text())
        assert set(doc) == REPORT_KEYS, (report.name, sorted(doc))


def test_the_reports_ci_compares_exist():
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    compared = re.search(r"bench\.py --compare (\S+) (\S+)", workflow)
    assert compared, "CI no longer runs bench.py --compare"
    for name in compared.groups():
        assert re.fullmatch(r"BENCH_[\w.-]+\.json", name), name
        assert (ROOT / name).is_file(), name


PAIRS_KEYS = {"tool", "seed", "pairs", "seconds", "trace", "parent", "change", "workloads"}
METRIC_KEYS = {
    "better", "bound", "pairs", "parent", "change", "change_pct", "wins", "losses",
    "clears_iqr", "spread_exceeds_bound",
}


def test_root_pair_reports_have_the_pairs_tool_schema():
    """``PAIRS_*.json`` are ``tools/pairs.py`` outputs: per workload the
    runs of both sides and, per metric, the paired values and verdicts."""
    reports = sorted(ROOT.glob("PAIRS_*.json"))
    assert reports, "no committed pairs report at the repository root"
    for report in reports:
        doc = json.loads(report.read_text())
        assert set(doc) == PAIRS_KEYS, (report.name, sorted(doc))
        for workload, body in doc["workloads"].items():
            assert set(body) == {"runs", "metrics"}, (report.name, workload)
            assert len(body["runs"]) == doc["pairs"], (report.name, workload)
            for name, row in body["metrics"].items():
                assert set(row) == METRIC_KEYS, (report.name, workload, name)
                assert len(row["pairs"]) <= doc["pairs"]
                assert row["wins"] + row["losses"] <= len(row["pairs"])
