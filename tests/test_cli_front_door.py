"""CLI tests for the shared job flags: ``run``, ``mutate`` and ``submit``
name a job the same way, and ``run --stream`` honours or refuses — never
silently drops — every ``run`` flag."""

import json

import pytest

from repro.cli import main
from repro.errors import JobSpecError
from repro.service import JobSpec

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

    def test_mutate_streams_a_staged_app(self, capsys):
        document = json_out(
            ["mutate", "--app", "bc", "--generate", "1", "--verify-cold",
             "--json"] + JOB,
            capsys,
        )
        assert document["verify"]["identical"] is True
        assert document["steps"][0]["strategy"] == "replay"

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

    def test_fp16_compression_reaches_the_session(self, stream_file, capsys):
        halved = json_out(
            self.RUN + WIDE + ["--compression", "fp16", "--stream", stream_file], capsys
        )
        lossless = json_out(self.RUN + WIDE + ["--stream", stream_file], capsys)
        # A later --compression overrides WIDE's: half-precision rows are
        # a different wire size, which is what shows the flag arrived.
        assert halved["steps"][0]["comm_bytes"] != lossless["steps"][0]["comm_bytes"]

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
        # fewer columns than an ok one.  A session refuses the sanitizer.
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps({
            "defaults": {"workload": "rmat22s", "scale_delta": -5, "hosts": 2},
            "jobs": [{"app": "bfs", "sanitize": True}, {"app": "bfs"}],
        }))
        assert main(["serve", str(jobs), "--stream", stream_file]) == 1
        out = capsys.readouterr().out
        assert "live-graph serve summary" in out
        assert " failed " in out and " ok " in out


#: name -> (flags, the same job as batch-file fields, the refusal table's message).
REFUSED = {
    "gemini-cvc": (
        ["--system", "gemini", "--hosts", "4", "--policy", "cvc"],
        {"system": "gemini", "hosts": 4, "policy": "cvc"},
        "Gemini supports only its own edge cut",
    ),
    "single-host-system-on-4-hosts": (
        ["--system", "galois", "--hosts", "4"],
        {"system": "galois", "hosts": 4},
        "galois is a shared-memory system; use d-galois for 4 hosts",
    ),
    # The next two used to leave ``run`` as a traceback with exit 1.
    "process-sanitize": (
        ["--system", "d-galois", "--runtime", "process", "--sanitize"],
        {"runtime": "process", "sanitize": True},
        "the proxy sanitizer requires --runtime simulated",
    ),
    "process-crash": (
        ["--system", "d-galois", "--runtime", "process", "--inject-fault", "crash:1@2"],
        {"runtime": "process", "inject_fault": "crash:1@2"},
        "crash-fault plans require --runtime simulated",
    ),
    "workers-without-process": (
        ["--system", "d-galois", "--workers", "2"],
        {"workers": 2},
        "--workers only applies to --runtime process",
    ),
}
AS_JOB_FIELDS = sorted(name for name, row in REFUSED.items() if row[1] is not None)


class TestUnsupportedCombinationIsAUsageError:
    """``run``/``submit``/``serve`` report what the refusal table refuses
    the way the streaming path does: exit 2, the table's message on
    stderr, no traceback, and no partition built."""

    TINY = ["--workload", "rmat22s", "--scale-delta", "-8"]

    @pytest.fixture(autouse=True)
    def nothing_is_built(self, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("a refused job reached build_partition")

        monkeypatch.setattr("repro.systems.build_partition", built)

    def refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err and captured.out == ""
        return captured.err

    @pytest.mark.parametrize(
        "command, case",
        [("run", name) for name in sorted(REFUSED)]
        + [("submit", name) for name in AS_JOB_FIELDS],
    )
    def test_exit_2_with_the_message_on_stderr(self, command, case, capsys):
        job, _, message = REFUSED[case]
        app = [] if "--app" in job else ["--app", "bfs"]
        err = self.refused([command] + job + app + self.TINY, capsys)
        assert f"repro: error: {message}" in err

    @pytest.mark.parametrize("case", AS_JOB_FIELDS)
    def test_serve_refuses_the_entry_at_load(self, case, tmp_path, capsys):
        _, job, message = REFUSED[case]
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps({
            "defaults": {"app": "bfs", "workload": "rmat22s", "scale_delta": -8},
            "jobs": [{"app": "cc"}, job],
        }))
        err = self.refused(["serve", str(jobs)], capsys)
        assert f"repro: error: job #2: {message}" in err

    @pytest.mark.parametrize("door", ["run", "submit", "serve", "JobSpec"])
    @pytest.mark.parametrize(
        "fault, complaint",
        [
            ("drop:0", "injects no faults"),
            ("crash:5@1", "crash targets host 5, but the cluster has 2 hosts"),
        ],
        ids=["empty-plan", "crash-beyond-the-cluster"],
    )
    def test_one_resilience_verdict_at_every_door(
        self, door, fault, complaint, tmp_path, capsys
    ):
        job = {"app": "bfs", "workload": "rmat22s", "hosts": 2, "inject_fault": fault}
        if door == "JobSpec":
            with pytest.raises(JobSpecError) as refused:
                JobSpec(**job)
            err = str(refused.value)
        elif door == "serve":
            jobs = tmp_path / "jobs.json"
            jobs.write_text(json.dumps([job]))
            err = self.refused(["serve", str(jobs)], capsys)
        else:
            system = ["--system", "d-galois"] if door == "run" else []
            err = self.refused(
                [door, *system, "--app", "bfs", "--hosts", "2", "--inject-fault", fault]
                + self.TINY,
                capsys,
            )
        assert "inject_fault: " in err and complaint in err


class TestResilienceFlagsKeepTheirMeaning:
    RUN = ["run", "--system", "d-galois", "--app", "bfs", "--hosts", "2",
           "--workload", "rmat22s", "--scale-delta", "-8"]

    def test_staged_app_checkpoints_and_traces(self, tmp_path, capsys):
        """bc's two stages run in one executor, so every executor option
        applies to it: checkpoints and a trace showing the stage switch."""
        trace = tmp_path / "bc.json"
        run = ["run", "--system", "d-galois", "--app", "bc", "--hosts", "2",
               "--workload", "rmat22s", "--scale-delta", "-8"]
        assert main(run + ["--checkpoint-every", "2", "--trace", str(trace)]) == 0
        assert "checkpoints" in capsys.readouterr().out
        events = json.loads(trace.read_text())["traceEvents"]
        assert [e["args"]["stage"] for e in events if e["name"] == "stage"] == [1]

    def test_checkpoint_dir_needs_a_cadence(self, tmp_path, capsys):
        """Round 0 is rebuilt from the input, never stored, so without a
        cadence a checkpoint directory would stay empty: a usage error."""
        ckpts = tmp_path / "ckpts"
        with pytest.raises(SystemExit) as exit_info:
            main(self.RUN + ["--checkpoint-dir", str(ckpts)])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "--checkpoint-dir needs --checkpoint-every" in captured.err
        assert "Traceback" not in captured.err and not ckpts.exists()
        assert main(self.RUN + ["--checkpoint-every", "1", "--checkpoint-dir", str(ckpts)]) == 0
        assert list(ckpts.glob("*.ckpt"))

    def test_a_stored_cadence_of_zero_means_off(self):
        spec = JobSpec(app="bfs", workload="rmat22s", checkpoint_every=0)
        assert spec.run_options()["resilience"] is None
        # ... while ``--checkpoint-every 0`` stays a usage error (tests/test_cli.py).
