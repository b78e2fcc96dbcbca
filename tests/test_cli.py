"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_run_arguments(self):
        args = build_parser().parse_args(
            [
                "run",
                "--system", "d-galois",
                "--app", "bfs",
                "--workload", "rmat24s",
                "--hosts", "8",
                "--policy", "cvc",
            ]
        )
        assert args.command == "run"
        assert args.hosts == 8

    def test_run_rejects_unknown_system(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--system", "spark", "--app", "bfs",
                 "--workload", "rmat24s"]
            )

    def test_experiment_names_cover_all_tables_and_figures(self):
        expected = {
            "table1", "table2", "table3", "table4", "table5",
            "fig8", "fig9", "fig10",
            "replication", "imbalance", "rounds", "metadata", "policies",
            "resilience", "aggregation",
        }
        assert set(EXPERIMENTS) == expected

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestRunValidation:
    _BASE = ["run", "--system", "d-galois", "--app", "bfs",
             "--workload", "rmat24s"]

    def test_zero_hosts_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(self._BASE + ["--hosts", "0"])
        assert "--hosts must be at least 1" in capsys.readouterr().err

    def test_negative_hosts_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(self._BASE + ["--hosts", "-2"])
        assert "--hosts must be at least 1" in capsys.readouterr().err

    def test_zero_checkpoint_cadence_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(self._BASE + ["--checkpoint-every", "0"])
        err = capsys.readouterr().err
        assert "--checkpoint-every must be at least 1" in err

    def test_malformed_fault_spec_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(self._BASE + ["--inject-fault", "crash:1"])
        assert "crash:HOST@ROUND" in capsys.readouterr().err

    def test_unknown_fault_kind_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(self._BASE + ["--inject-fault", "meteor:0.5"])
        assert "unknown fault kind" in capsys.readouterr().err

    def test_empty_fault_spec_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(self._BASE + ["--inject-fault", ""])
        assert "injects no faults" in capsys.readouterr().err

    def test_crash_beyond_cluster_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(self._BASE + ["--hosts", "4", "--inject-fault", "crash:7@2"])
        assert "cluster has 4" in capsys.readouterr().err


class TestCommands:
    def test_run_prints_summary(self, capsys):
        exit_code = main(
            [
                "run",
                "--system", "d-galois",
                "--app", "bfs",
                "--workload", "rmat24s",
                "--hosts", "2",
                "--policy", "oec",
                "--scale-delta", "-4",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "run summary" in out
        assert "replication factor" in out

    def test_run_with_level_and_fabric(self, capsys):
        exit_code = main(
            [
                "run",
                "--system", "d-galois",
                "--app", "cc",
                "--workload", "kron25s",
                "--hosts", "2",
                "--level", "unopt",
                "--scale-delta", "-4",
                "--scaled-fabric",
            ]
        )
        assert exit_code == 0
        assert "address translations" in capsys.readouterr().out

    def test_run_verify_feature_app(self, capsys):
        exit_code = main(
            [
                "run",
                "--system", "d-galois",
                "--app", "labelprop",
                "--workload", "rmat22s",
                "--hosts", "2",
                "--policy", "cvc",
                "--scale-delta", "-5",
                "--feature-dim", "16",
                "--compression", "delta",
                "--verify",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "oracle verification: matched" in out

    def test_dligra_bfs_confined_recovery_is_right(self, capsys):
        """A reborn host mixes BFS levels; a pull that skips every vertex
        with a finite distance (Ligra's ``cond``) then never lowers one,
        and this cell verified as ``MISMATCH (max |err| 1)``."""
        exit_code = main(
            [
                "run",
                "--system", "d-ligra",
                "--app", "bfs",
                "--workload", "rmat22s",
                "--scale-delta", "-3",
                "--hosts", "2",
                "--policy", "cvc",
                "--inject-fault", "crash:0@3",
                "--recovery", "confined",
                "--verify",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "mode=confined" in out
        assert "oracle verification: matched" in out

    def test_run_verify_fp16_within_tolerance(self, capsys):
        exit_code = main(
            [
                "run",
                "--system", "d-galois",
                "--app", "featprop",
                "--workload", "rmat22s",
                "--hosts", "2",
                "--scale-delta", "-5",
                "--compression", "fp16",
                "--verify",
            ]
        )
        assert exit_code == 0
        assert "oracle verification: matched" in capsys.readouterr().out

    def test_inputs_command(self, capsys):
        assert main(["inputs"]) == 0
        out = capsys.readouterr().out
        assert "rmat24s" in out and "wdc12s" in out

    def test_analyze_command(self, capsys):
        assert main(["analyze", "sssp"]) == 0
        out = capsys.readouterr().out
        assert "oec: reduce" in out
        assert "iec: broadcast" in out

    def test_experiment_metadata(self, capsys):
        assert main(["experiment", "metadata", "--scale-delta", "-3"]) == 0
        captured = capsys.readouterr()
        assert "BITVEC" in captured.out
        # The note is not part of the table: stderr, like the other notes.
        assert "does not apply" in captured.err
        assert "note:" not in captured.out

    def test_experiment_with_scale_delta(self, capsys):
        assert main(
            ["experiment", "replication", "--scale-delta", "-3"]
        ) == 0
        assert "gemini" in capsys.readouterr().out

    def test_run_with_fault_injection_and_recovery(self, capsys):
        exit_code = main(
            [
                "run",
                "--system", "d-galois",
                "--app", "bfs",
                "--workload", "rmat22s",
                "--hosts", "4",
                "--scale-delta", "-3",
                "--inject-fault", "crash:1@2,drop:0.02",
                "--checkpoint-every", "1",
                "--recovery", "confined",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "checkpoints" in out
        assert "mode=confined" in out

    def test_experiment_resilience(self, capsys):
        assert main(
            ["experiment", "resilience", "--scale-delta", "-3"]
        ) == 0
        out = capsys.readouterr().out
        assert "no-fault" in out
        assert "confined" in out
