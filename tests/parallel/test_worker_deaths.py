"""A *running* worker really dies (ROADMAP 3b): named error, bounded
time, no survivor, no ``/dev/shm`` residue — graph, state or rings.

The victim is parked inside the kernel of its round by a test-only app
whose ``step`` waits on an inherited ``Event`` (not a sleep), so the
kill, the exception and the interrupt all land while a round is in
flight and the surviving worker is blocked on the dead one's doorbell.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.apps import make_app
from repro.engines import make_engine
from repro.errors import ExecutionError
from repro.partition import make_partitioner
from repro.runtime.executor import DistributedExecutor
from repro.systems import prepare_input

pytestmark = [
    pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="the process runtime needs a POSIX /dev/shm"
    ),
    pytest.mark.usefixtures("no_leaked_segments"),
]

#: The coordinator's liveness poll must be what fires — not the rings'
#: 120 s receive timeout, not the 600 s round timeout.
BOUND_S = 15.0


class GatedBfs(type(make_app("bfs"))):
    """bfs, except that host 1's kernel announces itself and then parks
    (or raises) on its second round."""

    def __init__(self, ctx, fail=False):
        self.entered = ctx.Event()
        self.gate = ctx.Event()
        self.pid = ctx.Value("i", 0)
        self.fail = fail
        self.rounds = 0

    def step(self, part, state, frontier, direction="push"):
        if part.host == 1:
            self.rounds += 1
            if self.rounds == 2:
                if self.fail:
                    raise RuntimeError("kernel exploded on host 1")
                self.pid.value = os.getpid()
                self.entered.set()
                self.gate.wait()
        return super().step(part, state, frontier, direction)


def gated_executor(edges, **app_options):
    prep = prepare_input("bfs", edges)
    partitioned = make_partitioner("cvc").partition(prep.edges, 4)
    app = GatedBfs(multiprocessing.get_context("fork"), **app_options)
    ex = DistributedExecutor(
        partitioned, make_engine("galois"), app, prep.ctx,
        runtime="process", workers=2,
    )
    return ex, app


def when_parked(app, action):
    """Run ``action(fleet)`` once the victim is inside its gated round."""
    fleet = []
    others = set(multiprocessing.active_children())  # earlier tests' daemons

    def body():
        assert app.entered.wait(timeout=60), "the victim never reached its gate"
        fleet.extend(set(multiprocessing.active_children()) - others)
        action(fleet)

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    return thread, fleet


def assert_fleet_is_gone(fleet):
    assert len(fleet) == 2  # both workers were up when the fault hit
    for proc in fleet:
        proc.join(timeout=10)
        assert not proc.is_alive(), f"worker {proc.pid} outlived abort()"


def test_sigkill_of_a_running_worker_is_a_bounded_named_error(small_grid):
    ex, app = gated_executor(small_grid)
    thread, fleet = when_parked(
        app, lambda _: os.kill(app.pid.value, signal.SIGKILL)
    )
    started = time.monotonic()
    with pytest.raises(ExecutionError, match=r"worker\(s\) \[1\] died") as err:
        ex.run()
    elapsed = time.monotonic() - started
    thread.join(timeout=10)
    assert "-9" in str(err.value)  # the exit code names the signal
    assert elapsed < BOUND_S, f"took {elapsed:.1f}s to notice a dead worker"
    assert_fleet_is_gone(fleet)  # the survivor was blocked on a doorbell


def test_a_worker_that_raises_mid_round_reports_and_the_fleet_stops(small_grid):
    ex, _ = gated_executor(small_grid, fail=True)
    fleet_before = set(multiprocessing.active_children())
    started = time.monotonic()
    with pytest.raises(ExecutionError, match="worker 1 failed") as err:
        ex.run()
    assert "RuntimeError: kernel exploded on host 1" in str(err.value)
    assert time.monotonic() - started < BOUND_S
    assert set(multiprocessing.active_children()) <= fleet_before


def test_keyboard_interrupt_in_the_coordinator_tears_everything_down(small_grid):
    ex, app = gated_executor(small_grid)
    thread, fleet = when_parked(
        app, lambda _: os.kill(os.getpid(), signal.SIGINT)
    )
    with pytest.raises(KeyboardInterrupt):
        ex.run()
    thread.join(timeout=10)
    assert_fleet_is_gone(fleet)  # one parked on the gate, one on a doorbell
