"""``tools/pairs.py``'s statistics on canned ``bench.py`` outputs (no
timing, no git): medians, quartiles, win counts and the two verdicts."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def canned(parent, change, name="solve_s"):
    return [{"parent": {name: a}, "change": {name: b}} for a, b in zip(parent, change)]


def test_a_consistent_gain_wins_every_pair_and_clears_the_iqr():
    parent = [0.50, 0.52, 0.49, 0.51, 0.50, 0.53, 0.50, 0.51, 0.52, 0.50]
    change = [round(v - 0.08, 2) for v in parent]
    (row,) = pairs.summarize(canned(parent, change), SPEC).values()
    assert (row["wins"], row["losses"]) == (10, 0)
    assert row["parent"]["median"] == pytest.approx(0.505)
    assert row["change"]["median"] == pytest.approx(0.425)
    assert row["parent"]["q1"] == pytest.approx(0.5)
    assert row["parent"]["q3"] == pytest.approx(0.5175)
    assert row["change_pct"] == pytest.approx(100 * (0.425 / 0.505 - 1))
    assert row["clears_iqr"] and not row["spread_exceeds_bound"]
    assert row["pairs"][0] == [0.50, 0.42]


def test_noise_neither_wins_nor_clears_the_iqr():
    parent = [0.50, 0.56, 0.47, 0.53, 0.50, 0.49, 0.55, 0.51]
    change = [0.51, 0.52, 0.50, 0.55, 0.48, 0.50, 0.53, 0.52]
    (row,) = pairs.summarize(canned(parent, change), SPEC).values()
    assert row["wins"] + row["losses"] == len(parent)
    assert not row["clears_iqr"]


def test_a_higher_is_better_metric_counts_the_other_way():
    rows = pairs.summarize(
        canned([10.0, 11.0, 10.5], [12.0, 12.5, 9.0], "engine.medges_per_s"), SPEC
    )
    row = rows["engine.medges_per_s"]
    assert row["better"] == "higher" and row["bound"] is None
    assert (row["wins"], row["losses"]) == (2, 1)
    assert not row["spread_exceeds_bound"]  # per-layer metrics carry no bound


def test_a_bimodal_metric_is_flagged_against_its_bound():
    """``cc_setup``'s peak RSS sits at 188 or 225 MB from run to run: a
    37 MB range is wider than the metric's 15 % bound, so pairs cannot
    judge it."""
    parent = [188.0, 225.0, 189.0, 224.0, 188.5, 225.5]
    change = [188.2, 188.9, 224.8, 189.1, 225.1, 188.7]
    row = pairs.summarize(canned(parent, change, "peak_rss_mb"), SPEC)["peak_rss_mb"]
    assert row["bound"] == 0.15
    assert row["parent"]["spread"] == pytest.approx(37.5 / 206.5)
    assert row["spread_exceeds_bound"]


def test_a_missing_layer_is_summarized_over_the_pairs_that_have_it():
    runs = [
        {"parent": {"engine.compute_s": 0.2}, "change": {"engine.compute_s": 0.1}},
        {"parent": {"engine.compute_s": None}, "change": {"engine.compute_s": 0.1}},
    ]
    row = pairs.summarize(runs, SPEC)["engine.compute_s"]
    assert row["pairs"] == [[0.2, 0.1]] and row["wins"] == 1


def test_the_result_line_is_the_last_json_line():
    stdout = "solve_s  0.5 s\n" + json.dumps({
        "correct": True, "attempted": 5, "failed": 0,
        "metrics": {"solve_s": {"value": 0.5, "unit": "s"}},
    }) + "\n"
    assert pairs.result_line(stdout) == {"solve_s": 0.5}
    failed = json.dumps({"correct": False, "attempted": 5, "failed": 5, "metrics": {}})
    with pytest.raises(RuntimeError, match="bench run failed"):
        pairs.result_line(failed)
