"""What a process-runtime run puts in shared memory: exactly the state
arena and the rings per runner start — the partitions reach the workers
through ``fork``, never through a segment — and every segment it creates
is unlinked, on a normal finish and on ``abort()`` alike."""

from __future__ import annotations

import os
from multiprocessing import shared_memory

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


@pytest.fixture
def segments(monkeypatch):
    """``(created, removed)``: the names of every segment this process
    creates and unlinks while the test runs."""
    created, removed = [], []
    plain_init = shared_memory.SharedMemory.__init__
    plain_unlink = shared_memory.SharedMemory.unlink

    def init(self, name=None, create=False, size=0, **kw):
        plain_init(self, name=name, create=create, size=size, **kw)
        if create:
            created.append(self.name)

    def unlink(self):
        plain_unlink(self)
        removed.append(self.name)

    monkeypatch.setattr(shared_memory.SharedMemory, "__init__", init)
    monkeypatch.setattr(shared_memory.SharedMemory, "unlink", unlink)
    return created, removed


@pytest.mark.parametrize(
    "app_name,starts",
    [("bfs", 1), ("pr", 1), ("bc", 2)],  # bc's stage switch restarts the fleet
)
def test_two_segments_per_runner_start(tiny_edges, segments, app_name, starts):
    created, removed = segments
    result = run_app(
        "d-galois", app_name, tiny_edges, 4, runtime="process", workers=2
    )
    assert result.converged
    assert len(created) == 2 * starts, created
    assert sorted(removed) == sorted(created)


class ExplodingBfs(type(make_app("bfs"))):
    """bfs, except that host 1's kernel raises on its second round."""

    rounds = 0

    def step(self, part, state, frontier, direction="push"):
        if part.host == 1:
            self.rounds += 1
            if self.rounds == 2:
                raise RuntimeError("kernel exploded on host 1")
        return super().step(part, state, frontier, direction)


def test_abort_unlinks_every_segment(small_grid, segments):
    created, removed = segments
    prep = prepare_input("bfs", small_grid)
    ex = DistributedExecutor(
        make_partitioner("cvc").partition(prep.edges, 4),
        make_engine("galois"), ExplodingBfs(), prep.ctx,
        runtime="process", workers=2,
    )
    with pytest.raises(ExecutionError, match="worker 1 failed"):
        ex.run()
    assert len(created) == 2, created
    assert sorted(removed) == sorted(created)
