"""DESIGN.md's option and refusal tables are the ones ``repro.options``
renders — and the CLI's ``--runtime`` help names the same rows."""

from pathlib import Path

import pytest

from repro import cli
from repro.options import REFUSALS, option_table, refusal_table

DESIGN = (Path(__file__).resolve().parents[1] / "DESIGN.md").read_text()


@pytest.mark.parametrize("render", [option_table, refusal_table])
def test_design_carries_the_rendered_table_verbatim(render):
    assert render() in DESIGN, f"re-render {render.__name__}() into DESIGN.md §5"


def test_runtime_help_lists_the_process_runtime_rows(capsys):
    with pytest.raises(SystemExit):
        cli.main(["run", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    simulated_only = [row.feature for row in REFUSALS if row.context == "process runtime"]
    assert len(simulated_only) == 5
    assert f"simulated-only features: {', '.join(simulated_only)})" in text
