"""Absolute anchor: every app's answer and every simulated quantity, pinned.

``tests/golden/app_matrix.json`` holds, for every registered app × every
partition policy × hosts {1, 4} × optimization levels {UNOPT, OSTI} on
one fixed R-MAT (plus two ``runtime="process"`` cells): the round count,
communication volume and messages, construction bytes, the simulated
time as ``float.hex`` and the sha256 of the gathered answer array.  HEAD
must reproduce every cell exactly — "all results and all simulated
quantities bitwise unchanged" as one assertion, for refactors and perf
work alike.  The file names the commit it was recorded at.

Re-record only when a change is *meant* to move one of these numbers,
from a clean checkout of the commit that becomes the new reference::

    PYTHONPATH=src python tests/integration/test_golden_matrix.py
"""

import hashlib
import json
import subprocess
from pathlib import Path

import pytest

from repro.apps import APP_BY_NAME
from repro.core.optimization import OptimizationLevel
from repro.graph.generators import rmat
from repro.partition import PARTITIONER_BY_NAME
from repro.systems import run_app
from repro.verify import output_key

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "app_matrix.json"

GRAPH = {"scale": 8, "edge_factor": 8, "seed": 7}
HOSTS = (1, 4)
LEVELS = ("unopt", "osti")
#: (app, policy, hosts, level) run once more under ``runtime="process"``.
PROCESS_CELLS = (("bfs", "cvc", 4, "osti"), ("pr", "oec", 4, "osti"))

EDGES = rmat(**GRAPH)


def matrix():
    """Every ``(app, policy, hosts, level, runtime)`` cell, in file order."""
    apps = sorted(set(APP_BY_NAME) - {"pagerank"})  # drop the alias
    for app in apps:
        for policy in sorted(PARTITIONER_BY_NAME):
            for hosts in HOSTS:
                for level in LEVELS:
                    yield app, policy, hosts, level, "simulated"
    for app, policy, hosts, level in PROCESS_CELLS:
        yield app, policy, hosts, level, "process"


def cell_name(app, policy, hosts, level, runtime):
    return f"{app}/{policy}/{hosts}/{level}/{runtime}"


def measure(app, policy, hosts, level, runtime):
    result = run_app(
        "d-galois", app, EDGES, num_hosts=int(hosts), policy=policy,
        level=OptimizationLevel.from_name(level), runtime=runtime,
        workers=2 if runtime == "process" else None,
    )
    answer = result.executor.gather_result(output_key(app))
    digest = hashlib.sha256()
    digest.update(f"{answer.dtype.str}{answer.shape}".encode())
    digest.update(answer.tobytes())
    return {
        "rounds": result.num_rounds,
        "communication_volume": result.communication_volume,
        "communication_messages": result.communication_messages,
        "construction_bytes": result.construction_bytes,
        "sim_time_hex": float(result.total_time).hex(),
        "answer_sha256": digest.hexdigest(),
    }


#: Empty only while the file is being recorded for the first time.
CELLS = json.loads(GOLDEN.read_text())["cells"] if GOLDEN.exists() else {}


def test_file_covers_the_whole_matrix():
    """A newly registered app or policy must be recorded, not skipped."""
    assert sorted(CELLS) == sorted(cell_name(*cell) for cell in matrix())


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_head_reproduces_cell(cell):
    assert measure(*cell.split("/")) == CELLS[cell], cell


if __name__ == "__main__":
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], check=True, capture_output=True,
        text=True,
    ).stdout.strip()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({
        "recorded_at": commit,
        "graph": GRAPH,
        "cells": {cell_name(*cell): measure(*cell) for cell in matrix()},
    }, indent=1) + "\n")
    print(f"recorded {GOLDEN} at {commit}")
