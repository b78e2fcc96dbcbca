"""CLI `run` command across system families (GPU, baseline, hybrid)."""

import pytest

from repro.cli import main


@pytest.mark.parametrize(
    "system,extra",
    [
        ("d-irgl", ["--policy", "iec"]),
        ("d-hybrid", ["--policy", "cvc"]),
        ("gemini", []),
        ("gunrock", []),
    ],
)
def test_run_per_system(capsys, system, extra):
    exit_code = main(
        [
            "run",
            "--system", system,
            "--app", "bfs",
            "--workload", "rmat24s",
            "--hosts", "4",
            "--scale-delta", "-4",
            "--scaled-fabric",
        ]
        + extra
    )
    assert exit_code == 0
    out = capsys.readouterr().out
    assert system in out
    assert "replication factor" in out


def test_run_multi_phase_app(capsys):
    exit_code = main(
        [
            "run",
            "--system", "d-galois",
            "--app", "bc",
            "--workload", "rmat24s",
            "--hosts", "4",
            "--scale-delta", "-4",
        ]
    )
    assert exit_code == 0
    assert "bc" in capsys.readouterr().out


def test_run_rejects_bad_combination(capsys):
    """An unsupported system x hosts pair is a usage error, not a traceback."""
    with pytest.raises(SystemExit) as excinfo:
        main(
            [
                "run",
                "--system", "gunrock",
                "--app", "bfs",
                "--workload", "rmat24s",
                "--hosts", "8",  # beyond one node
                "--scale-delta", "-4",
            ]
        )
    assert excinfo.value.code == 2
    assert "repro: error: Gunrock is single-node" in capsys.readouterr().err
