"""CLI tests for the shared job flags: ``run``, ``mutate`` and ``submit``
name a job the same way, and ``run --stream`` honours or refuses — never
silently drops — every ``run`` flag."""

import json

import pytest

from repro.cli import main

JOB = ["--workload", "rmat22s", "--scale-delta", "-5", "--hosts", "2"]
WIDE = ["--feature-dim", "32", "--compression", "delta"]


@pytest.fixture()
def stream_file(tmp_path):
    path = tmp_path / "stream.json"
    path.write_text(json.dumps({"batches": [{"delete_edges": [[0, 1]]}]}))
    return str(path)


def json_out(argv, capsys):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


class TestSameAppNamesEverywhere:
    @pytest.mark.parametrize(
        "command",
        [
            ["run", "--system", "d-galois"],
            ["mutate", "--generate", "1"],
            ["submit"],
        ],
        ids=["run", "mutate", "submit"],
    )
    def test_optimized_twin_is_accepted(self, command, capsys):
        argv = command + ["--app", "bfs@optimized", "--json"] + JOB
        document = json_out(argv, capsys)
        if command[0] == "submit":
            assert document["status"] == "ok"
            ran = document["spec"]["app"]
        else:
            ran = (document.get("summary") or document["base"])["app"]
        assert ran == "bfs@optimized"

    def test_mutate_refuses_multi_phase_by_name(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["mutate", "--app", "bc", "--generate", "1"] + JOB)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "bc is multi-phase" in err
        assert "invalid choice" not in err

    def test_mutate_streams_a_mean_style_app(self, capsys):
        # Crashed with a bare ValueError traceback on the first batch.
        document = json_out(
            ["mutate", "--app", "featprop-mean", "--generate", "2",
             "--verify-cold", "--json"] + JOB,
            capsys,
        )
        assert document["verify"]["identical"] is True
        assert len(document["steps"]) == 2


class TestRunStreamFlags:
    RUN = ["run", "--system", "d-galois", "--app", "featprop", "--json"] + JOB

    def test_feature_flags_reach_the_session(self, stream_file, capsys):
        plain = json_out(self.RUN + WIDE, capsys)
        narrow = json_out(self.RUN, capsys)
        streamed = json_out(self.RUN + WIDE + ["--stream", stream_file], capsys)
        plain_bytes = sum(row["comm_bytes"] for row in plain["rounds"])
        narrow_bytes = sum(row["comm_bytes"] for row in narrow["rounds"])
        assert plain_bytes != narrow_bytes
        assert streamed["base"] == plain["summary"]
        # A one-edge batch replays featprop from scratch: d=32 traffic.
        assert streamed["steps"][0]["comm_bytes"] > narrow_bytes

    def test_no_compression_reaches_the_session(self, stream_file, capsys):
        uncompressed = json_out(
            self.RUN + WIDE + ["--no-compression", "--stream", stream_file], capsys
        )
        compressed = json_out(self.RUN + WIDE + ["--stream", stream_file], capsys)
        # Dense featprop rows change wholesale, so delta is no saving
        # here — only a different wire size, which is what shows the flag
        # arrived.
        assert (
            uncompressed["steps"][0]["comm_bytes"]
            != compressed["steps"][0]["comm_bytes"]
        )

    @pytest.mark.parametrize("flag", ["--verify", "--per-round"])
    def test_per_run_checks_are_refused_by_name(self, flag, stream_file, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(self.RUN + ["--stream", stream_file, flag])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"--stream is incompatible with {flag}" in err
        if flag == "--verify":
            assert "mutate --verify-cold" in err


class TestServeStreamText:
    def test_failed_job_keeps_the_table_rectangular(
        self, stream_file, tmp_path, capsys
    ):
        # Text mode used to die in format_table: a failed job's row had
        # fewer columns than an ok one.
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps({
            "defaults": {"workload": "rmat22s", "scale_delta": -5, "hosts": 2},
            "jobs": [{"app": "bc"}, {"app": "bfs"}],
        }))
        assert main(["serve", str(jobs), "--stream", stream_file]) == 1
        out = capsys.readouterr().out
        assert "live-graph serve summary" in out
        assert " failed " in out and " ok " in out


class TestUnsupportedCombinationIsAUsageError:
    """``run``/``submit`` report what ``plan_run`` refuses the way the
    streaming path does: exit 2, the message on stderr, no traceback."""

    TINY = ["--app", "bfs", "--workload", "rmat22s", "--scale-delta", "-8"]

    @pytest.mark.parametrize("command", ["run", "submit"])
    @pytest.mark.parametrize(
        "job, message",
        [
            (
                ["--system", "gemini", "--hosts", "4", "--policy", "cvc"],
                "Gemini supports only its own edge cut",
            ),
            (
                ["--system", "galois", "--hosts", "4"],
                "galois is a shared-memory system; use d-galois for 4 hosts",
            ),
        ],
        ids=["gemini-cvc", "single-host-system-on-4-hosts"],
    )
    def test_exit_2_with_the_message_on_stderr(self, command, job, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command] + job + self.TINY)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"repro: error: {message}" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
