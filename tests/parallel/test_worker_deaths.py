"""A *running* worker really dies: named error, bounded time, no
survivor, no ``/dev/shm`` residue.  And when the coordinator is the one
that dies — waiting for reports or between two commands — its workers
exit on their own.

The victim is parked inside the kernel of its round by a test-only app
whose ``step`` waits on an inherited ``Event`` (not a sleep), so the
kill, the exception and the interrupt all land while a round is in
flight and the surviving worker is blocked on the dead one's doorbell.
"""

from __future__ import annotations

import multiprocessing
import os
import select
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

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


#: A coordinator over two workers; ``PATCH`` becomes the lines that
#: replace one of its methods, and calls ``announce`` once the fleet is
#: up: the resource tracker's pid (``None``: never started), then the
#: workers'.
COORDINATOR = textwrap.dedent(
    """
    import os
    import signal
    import time
    from multiprocessing import resource_tracker

    from repro.apps import make_app
    from repro.engines import make_engine
    from repro.graph.generators import grid_graph
    from repro.parallel.coordinator import ProcessRunner
    from repro.partition import make_partitioner
    from repro.runtime.executor import DistributedExecutor
    from repro.systems import prepare_input

    class SlowBfs(type(make_app("bfs"))):
        def step(self, part, state, frontier, direction="push"):
            time.sleep(0.2)
            return super().step(part, state, frontier, direction)

    def announce(runner):
        print(resource_tracker._resource_tracker._pid,
              *(proc.pid for proc in runner._procs), flush=True)

    PATCH
    prep = prepare_input("bfs", grid_graph(12, 12))
    DistributedExecutor(
        make_partitioner("cvc").partition(prep.edges, 4), make_engine("galois"),
        SlowBfs(), prep.ctx, runtime="process", workers=2,
    ).run()
    """
)

#: Announces once the fleet is up, then runs slow rounds — so a SIGKILL
#: lands while it waits for reports, not between two commands.
SLOW_ROUNDS = """
plain_start = ProcessRunner.start

def start(self, ex):
    plain_start(self, ex)
    announce(self)

ProcessRunner.start = start
"""

#: Commands worker 0 alone, then dies: worker 0 is left waiting on the
#: doorbells of worker 1's hosts, which never got a command.
DIES_BETWEEN_COMMANDS = """
def run_round(self, ex, round_index):
    announce(self)
    self._cmd_qs[0].put(("round", round_index))
    time.sleep(0.5)  # the queue's feeder thread delivers the command
    os.kill(os.getpid(), signal.SIGKILL)

ProcessRunner.run_round = run_round
"""


def launch(patch: str):
    """Start a coordinator; return it, its tracker pid and its workers."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    coordinator = subprocess.Popen(
        [sys.executable, "-c", COORDINATOR.replace("PATCH", patch)],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    with coordinator.stdout:
        started = select.select([coordinator.stdout], [], [], 60)[0]
        announced = coordinator.stdout.readline().split() if started else []
    if len(announced) != 3:
        coordinator.kill()
        coordinator.wait(timeout=10)
        pytest.fail("the coordinator never started its fleet")
    tracker, *workers = announced
    return coordinator, tracker, [int(pid) for pid in workers]


def alive(pid: int) -> bool:
    """Whether ``pid`` still runs; a zombie nobody has reaped yet does not."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def wait_gone(pids, seconds: float) -> list:
    """Poll until every pid is gone or ``seconds`` pass; the survivors."""
    deadline = time.monotonic() + seconds
    while any(alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    return [pid for pid in pids if alive(pid)]


def test_workers_exit_when_their_coordinator_is_sigkilled():
    coordinator, tracker, workers = launch(SLOW_ROUNDS)
    try:
        # No named segment, so nothing for a resource tracker to unlink
        # after the coordinator: it is never started.
        assert tracker == "None"
        time.sleep(1.0)  # a few slow rounds in
        coordinator.kill()
        coordinator.wait(timeout=10)
        assert wait_gone(workers, 10.0) == [], "workers outlived their coordinator"
    finally:
        for pid in wait_gone(workers, 0.0):
            os.kill(pid, signal.SIGKILL)


def test_a_commanded_worker_exits_when_its_coordinator_dies_between_commands():
    """Worker 0 waits for peers in liveness-poll slices, not for the
    rings' 120 s receive timeout; worker 1 sees the death in its
    command wait."""
    coordinator, tracker, workers = launch(DIES_BETWEEN_COMMANDS)
    try:
        assert tracker == "None"
        assert coordinator.wait(timeout=10) == -signal.SIGKILL
        assert wait_gone(workers, 10.0) == [], "workers outlived their coordinator"
    finally:
        for pid in wait_gone(workers, 0.0):
            os.kill(pid, signal.SIGKILL)
