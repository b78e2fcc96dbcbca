"""CLI tests for the streaming surface: `repro mutate`, `run --stream`,
and `serve --stream`."""

import json

import pytest

from repro.cli import main

# rmat22s is base scale 12; -4 => 256 nodes, small but non-degenerate.
_MUTATE = [
    "mutate",
    "--app", "bfs",
    "--workload", "rmat22s",
    "--scale-delta", "-4",
    "--hosts", "4",
    "--policy", "oec",
]


@pytest.fixture()
def stream_file(tmp_path):
    path = tmp_path / "stream.json"
    path.write_text(json.dumps({
        "batches": [
            {"delete_edges": [[0, 1]]},
            {"add_nodes": 1, "insert": [[256, 0]]},
        ]
    }))
    return str(path)


class TestMutateValidation:
    def test_requires_stream_or_generate(self, capsys):
        with pytest.raises(SystemExit):
            main(_MUTATE)
        assert "--stream" in capsys.readouterr().err

    def test_stream_and_generate_mutually_exclusive(
        self, stream_file, capsys
    ):
        with pytest.raises(SystemExit):
            main(_MUTATE + ["--stream", stream_file, "--generate", "2"])
        assert "not allowed with" in capsys.readouterr().err

    def test_zero_generate_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(_MUTATE + ["--generate", "0"])
        assert "--generate must be at least 1" in capsys.readouterr().err

    def test_bad_fraction_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(
                _MUTATE
                + ["--generate", "1", "--delete-fraction", "1.5"]
            )
        assert "delete-fraction" in capsys.readouterr().err

    def test_save_requires_generate(self, stream_file, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(
                _MUTATE
                + ["--stream", stream_file,
                   "--save", str(tmp_path / "out.json")]
            )
        assert "--save only applies to --generate" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"batches": [{"insert": [[1, -2]]}]}',
        '{"batches": [{"insert": [[1, 1099511627776]]}]}',
        '{"batches": [{"insert": [[1, "x"]]}]}',
        '{"batches": [{"add_nodes": "many"}]}',
        '{"batches": [{"insert": [5]}]}',
        '{"batches": [{"delete_edges": [[1]]}]}',
        '{"batches": [{"insert": [[1.5, 2]]}]}',
        '{"batches": [{"insert": [[0, 1]',
    ])
    def test_malformed_stream_exits_2_by_name(self, text, tmp_path, capsys):
        path = tmp_path / "hostile.json"
        path.write_text(text)
        with pytest.raises(SystemExit) as exit_info:
            main(_MUTATE + ["--stream", str(path)])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "repro: error:" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestMutate:
    def test_generated_stream_verifies_bitwise_vs_cold(self, tmp_path, capsys):
        assert main(
            _MUTATE + ["--generate", "2", "--seed", "7", "--verify-cold",
                       "--cache-dir", str(tmp_path / "cache")]
        ) == 0
        out = capsys.readouterr().out
        assert "mutation stream" in out
        assert "host partitions    : " in out and "reused warm" in out
        assert "partition cache" not in out
        assert "bitwise vs cold    : identical" in out
        assert "final version      : 2" in out

    def test_save_then_replay_round_trips(self, tmp_path, capsys):
        saved = str(tmp_path / "replay.json")
        assert main(
            _MUTATE + ["--generate", "2", "--seed", "3", "--save", saved]
        ) == 0
        first = capsys.readouterr()
        assert "stream written to" in first.err
        assert main(
            _MUTATE + ["--stream", saved, "--verify-cold", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verify"]["identical"] is True
        assert len(doc["steps"]) == 2
        # Deterministic replay: same batches => same content hashes.
        assert doc["steps"][0]["content_hash"]

    def test_json_mode_reports_host_turnover(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(
            _MUTATE
            + ["--generate", "1", "--cache-dir", cache, "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        step = doc["steps"][0]
        assert step["hosts_reused"] + step["hosts_rebuilt"] == 4
        assert "cache_reuses" not in step
        # Only the base version goes through the cache.
        assert doc["cache"]["partition"]["stores"] == 1

    def test_incremental_strategy_reported_for_cc(self, capsys):
        assert main([
            "mutate", "--app", "cc", "--workload", "rmat22s",
            "--scale-delta", "-4", "--hosts", "2", "--policy", "iec",
            "--generate", "1", "--verify-cold", "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["steps"][0]["strategy"] == "certified"
        assert doc["verify"]["identical"] is True

    def test_trace_and_metrics_exports(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        assert main(
            _MUTATE
            + ["--generate", "1",
               "--trace", str(trace), "--metrics", str(metrics)]
        ) == 0
        capsys.readouterr()
        trace_doc = json.loads(trace.read_text())
        names = {event.get("name") for event in trace_doc["traceEvents"]}
        assert "delta-partition" in names
        assert "affected-frontier" in names
        metrics_doc = json.loads(metrics.read_text())
        counter_names = {
            name.split("{")[0] for name in metrics_doc["counters"]
        }
        assert "streaming_mutations_total" in counter_names


class TestRunStream:
    def test_run_stream_replays_and_summarizes(self, stream_file, capsys):
        assert main([
            "run", "--system", "d-galois", "--app", "bfs",
            "--workload", "rmat22s", "--scale-delta", "-4",
            "--hosts", "4", "--policy", "oec", "--stream", stream_file,
        ]) == 0
        out = capsys.readouterr().out
        assert "base run (version 0)" in out
        assert "mutation stream" in out
        assert "final version      : 2" in out

    def test_run_stream_json(self, stream_file, capsys):
        assert main([
            "run", "--system", "d-galois", "--app", "bfs",
            "--workload", "rmat22s", "--scale-delta", "-4",
            "--hosts", "2", "--stream", stream_file, "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["steps"]) == 2
        assert doc["steps"][1]["version"] == 2

    def test_incompatible_with_process_runtime(self, stream_file, capsys):
        with pytest.raises(SystemExit):
            main([
                "run", "--system", "d-galois", "--app", "bfs",
                "--workload", "rmat22s", "--stream", stream_file,
                "--runtime", "process",
            ])
        err = capsys.readouterr().err
        assert "streaming sessions do not support runtime='process'" in err

    def test_incompatible_with_fault_injection(self, stream_file, capsys):
        with pytest.raises(SystemExit):
            main([
                "run", "--system", "d-galois", "--app", "bfs",
                "--workload", "rmat22s", "--stream", stream_file,
                "--inject-fault", "crash:0@1",
            ])
        err = capsys.readouterr().err
        assert "streaming sessions do not support resilience=" in err

    def test_missing_stream_file_is_a_parser_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main([
                "run", "--system", "d-galois", "--app", "bfs",
                "--workload", "rmat22s", "--scale-delta", "-4",
                "--stream", str(tmp_path / "nope.json"),
            ])


class TestServeStream:
    def test_requires_serial_backend(self, stream_file, tmp_path, capsys):
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps([
            {"app": "bfs", "workload": "rmat22s", "scale_delta": -4,
             "hosts": 2},
        ]))
        with pytest.raises(SystemExit):
            main([
                "serve", str(jobs), "--stream", stream_file,
                "--backend", "process",
            ])
        assert "serial" in capsys.readouterr().err

    def test_live_graph_serving_shares_the_cache(
        self, stream_file, tmp_path, capsys
    ):
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps([
            {"app": "bfs", "workload": "rmat22s", "scale_delta": -4,
             "hosts": 4, "policy": "oec"},
            {"app": "pagerank", "workload": "rmat22s", "scale_delta": -4,
             "hosts": 4, "policy": "oec"},
        ]))
        assert main(["serve", str(jobs), "--stream", stream_file]) == 0
        out = capsys.readouterr().out
        assert "live-graph serve summary" in out
        assert out.count(" ok ") >= 2
        assert "host partitions" in out and "reused warm" in out
        assert "partition cache" not in out

    def test_json_mode_reports_per_job_steps(
        self, stream_file, tmp_path, capsys
    ):
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps([
            {"app": "bfs", "workload": "rmat22s", "scale_delta": -4,
             "hosts": 2},
        ]))
        assert main([
            "serve", str(jobs), "--stream", stream_file, "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["jobs"][0]["status"] == "ok"
        assert len(doc["jobs"][0]["steps"]) == 2
        assert "partition" in doc["stats"]

    def test_failing_job_reported_not_fatal(
        self, stream_file, tmp_path, capsys
    ):
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps([
            {"app": "bfs", "workload": "rmat22s", "scale_delta": -4,
             "hosts": 2, "sanitize": True},  # a session refuses the sanitizer
            {"app": "bc", "workload": "rmat22s", "scale_delta": -4,
             "hosts": 2},  # staged: streams like any other app
        ]))
        assert main([
            "serve", str(jobs), "--stream", stream_file, "--json",
        ]) == 1
        doc = json.loads(capsys.readouterr().out)
        statuses = [job["status"] for job in doc["jobs"]]
        assert statuses == ["failed", "ok"]
        assert "sanitize" in doc["jobs"][0]["error"]
        assert len(doc["jobs"][1]["steps"]) == 2
