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
