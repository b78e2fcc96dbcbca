"""What a process-runtime run puts in ``/dev/shm``: nothing.  The state
arena and the rings are anonymous mappings made before the fork, and the
partitions reach the workers through ``fork`` too — so no run constructs
a named segment or starts multiprocessing's resource tracker, on a
normal finish and on ``abort()`` alike."""

from __future__ import annotations

import os
from multiprocessing import resource_tracker, shared_memory

import pytest

from repro.apps import make_app
from repro.engines import make_engine
from repro.errors import ExecutionError
from repro.partition import make_partitioner
from repro.runtime.executor import DistributedExecutor
from repro.systems import prepare_input, run_app

pytestmark = [
    pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="the process runtime needs a POSIX /dev/shm"
    ),
    pytest.mark.usefixtures("no_leaked_segments"),
]


@pytest.fixture(autouse=True)
def no_named_segments(monkeypatch):
    """Constructing a ``SharedMemory`` or starting the resource tracker
    fails the run — in the coordinator and, inherited, in its workers."""

    def refuse(*args, **kwargs):
        raise AssertionError("the process runtime used a named segment")

    monkeypatch.setattr(shared_memory.SharedMemory, "__init__", refuse)
    monkeypatch.setattr(resource_tracker.ResourceTracker, "ensure_running", refuse)


@pytest.mark.parametrize(
    "app_name", ["bfs", "pr", "bc"]  # bc's stage switch restarts the fleet
)
def test_a_run_creates_no_named_segment(tiny_edges, app_name):
    result = run_app(
        "d-galois", app_name, tiny_edges, 4, runtime="process", workers=2
    )
    assert result.converged


class ExplodingBfs(type(make_app("bfs"))):
    """bfs, except that host 1's kernel raises on its second round."""

    rounds = 0

    def step(self, part, state, frontier, direction="push"):
        if part.host == 1:
            self.rounds += 1
            if self.rounds == 2:
                raise RuntimeError("kernel exploded on host 1")
        return super().step(part, state, frontier, direction)


def test_abort_creates_no_named_segment(small_grid):
    prep = prepare_input("bfs", small_grid)
    ex = DistributedExecutor(
        make_partitioner("cvc").partition(prep.edges, 4),
        make_engine("galois"), ExplodingBfs(), prep.ctx,
        runtime="process", workers=2,
    )
    with pytest.raises(ExecutionError, match="worker 1 failed") as err:
        ex.run()
    assert "kernel exploded" in str(err.value)
