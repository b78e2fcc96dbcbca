"""CLI tests for `repro serve`, `repro submit`, and `run --cache-dir`."""

import json

import pytest

from repro.cli import main

_BATCH = {
    "defaults": {"workload": "rmat22s", "hosts": 4, "scale_delta": -6},
    "jobs": [
        {"app": "bfs", "policy": "cvc"},
        {"app": "pr", "policy": "cvc", "priority": 1},
    ],
}


@pytest.fixture()
def batch_file(tmp_path):
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(_BATCH))
    return str(path)


class TestServe:
    def test_prints_summary_and_exits_zero(self, batch_file, capsys):
        assert main(["serve", batch_file]) == 0
        out = capsys.readouterr().out
        assert "serve summary" in out
        assert "throughput" in out
        assert out.count(" ok ") >= 1

    def test_warm_second_pass_hits_the_result_cache(
        self, batch_file, tmp_path, capsys
    ):
        cache = str(tmp_path / "cache")
        assert main(["serve", batch_file, "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["serve", batch_file, "--cache-dir", cache]) == 0
        assert "2 result hit(s)" in capsys.readouterr().out

    def test_json_mode_emits_one_document(self, batch_file, capsys):
        assert main(["serve", batch_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["results"]) == 2
        assert doc["jobs_per_s"] > 0
        assert doc["stats"]["jobs"]["completed"] == 2
        # Priority 1 (pr) is served before priority 0 (bfs).
        assert [r["spec"]["app"] for r in doc["results"]] == ["pr", "bfs"]

    def test_optimized_app_is_served_bitwise_equal_to_the_bare_app(
        self, tmp_path, capsys
    ):
        path = tmp_path / "jobs.json"
        batch = dict(_BATCH, jobs=[{"app": "bfs"}, {"app": "bfs@optimized"}])
        path.write_text(json.dumps(batch))
        assert main(["serve", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        bare, optimized = doc["results"]
        assert [r["spec"]["app"] for r in doc["results"]] == [
            "bfs", "bfs@optimized",
        ]
        assert bare["status"] == optimized["status"] == "ok"
        # Distinct cache keys, the same answer.
        assert bare["result_cache"] == optimized["result_cache"] == "miss"
        assert bare["spec_hash"] != optimized["spec_hash"]
        assert bare["output_digest"] == optimized["output_digest"]
        assert bare["output_digest"] is not None

    def test_missing_batch_file_is_a_parser_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["serve", str(tmp_path / "nope.json")])
        assert "not found" in capsys.readouterr().err

    def test_bad_job_is_named(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"app": "warp", "workload": "rmat22s"}]))
        with pytest.raises(SystemExit):
            main(["serve", str(path)])
        assert "job #1" in capsys.readouterr().err

    def test_zero_workers_rejected(self, batch_file, capsys):
        with pytest.raises(SystemExit):
            main(["serve", batch_file, "--workers", "0"])
        assert "--workers" in capsys.readouterr().err


class TestSubmit:
    _BASE = ["submit", "--app", "bfs", "--workload", "rmat22s",
             "--scale-delta", "-6", "--policy", "cvc"]

    def test_runs_and_reports_cache_provenance(self, capsys):
        assert main(self._BASE) == 0
        out = capsys.readouterr().out
        assert "result cache" in out
        assert "output digest" in out

    def test_resubmit_hits_via_disk_cache(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert main(self._BASE + cache) == 0
        capsys.readouterr()
        assert main(self._BASE + cache + ["--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result_cache"] == "hit"
        assert doc["status"] == "ok"

    def test_negative_retries_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(self._BASE + ["--retries", "-1"])
        assert "--retries" in capsys.readouterr().err


class TestRunCacheDir:
    _BASE = ["run", "--system", "d-galois", "--app", "bfs",
             "--workload", "rmat22s", "--scale-delta", "-6",
             "--policy", "cvc", "--hosts", "4"]

    def test_cold_then_warm_partition_cache(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert main(self._BASE + cache) == 0
        assert "partition cache    : miss" in capsys.readouterr().out
        assert main(self._BASE + cache) == 0
        assert "partition cache    : hit" in capsys.readouterr().out

    def test_no_cache_dir_prints_no_cache_line(self, capsys):
        assert main(self._BASE) == 0
        assert "partition cache" not in capsys.readouterr().out
