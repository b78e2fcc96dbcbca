"""The process runtime's one allocator: named arrays in an anonymous
shared mapping, shared with forked children and owned by its views."""

from __future__ import annotations

import gc
import multiprocessing
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.parallel.rings import shared_arrays

pytestmark = pytest.mark.usefixtures("no_leaked_segments")

LAYOUT = {
    "flags": ((3,), np.bool_),
    "ids": ((5,), np.uint32),
    "grid": ((4, 3), np.float64),
    ("host", "key"): ((7,), np.int16),
    "empty": ((0,), np.int64),
}


def test_arrays_are_zero_filled_aligned_and_shaped():
    arrays = shared_arrays(LAYOUT)
    assert list(arrays) == list(LAYOUT)
    for name, (shape, dtype) in LAYOUT.items():
        view = arrays[name]
        assert view.shape == shape and view.dtype == np.dtype(dtype)
        assert view.flags.c_contiguous and view.flags.writeable
        assert view.ctypes.data % 8 == 0, name
        assert not view.any()


def test_arrays_do_not_overlap():
    arrays = shared_arrays(LAYOUT)
    for i, view in enumerate(arrays.values()):
        view[...] = i + 1
    for i, view in enumerate(arrays.values()):
        assert (view == i + 1).all()


def test_empty_layouts_and_arrays_work():
    assert shared_arrays({}) == {}
    (view,) = shared_arrays({"x": ((0,), np.uint8)}).values()
    assert view.size == 0


def _write(arrays):  # pragma: no cover - runs in a child
    arrays["ids"][:] = np.arange(5, dtype=np.uint32) + 10
    arrays["grid"][2, 1] = 2.5


def test_a_forked_childs_writes_are_visible_to_the_parent():
    arrays = shared_arrays(LAYOUT)
    child = multiprocessing.get_context("fork").Process(
        target=_write, args=(arrays,)
    )
    child.start()
    child.join(timeout=30)
    assert child.exitcode == 0
    np.testing.assert_array_equal(arrays["ids"], np.arange(5) + 10)
    assert arrays["grid"][2, 1] == 2.5 and arrays["grid"].sum() == 2.5


def test_a_view_outlives_every_other_reference_to_its_mapping():
    view = shared_arrays(LAYOUT)["grid"]
    gc.collect()
    view[...] = np.arange(12).reshape(4, 3)
    assert view.sum() == 66
    assert view.base is not None  # the view itself pins the mapping


def _write_and_hang(arrays, written):  # pragma: no cover - runs in a child
    import time

    arrays["ids"][0] = 7
    written.set()
    time.sleep(300)


def test_a_killed_child_leaves_the_mapping_whole():
    """SIGKILL of a process holding the mapping neither frees nor leaks
    it: the parent keeps the child's write and keeps writing."""
    ctx = multiprocessing.get_context("fork")
    arrays = shared_arrays(LAYOUT)
    written = ctx.Event()
    child = ctx.Process(target=_write_and_hang, args=(arrays, written), daemon=True)
    child.start()
    assert written.wait(timeout=30)
    child.kill()
    child.join(timeout=10)
    assert child.exitcode == -9
    assert arrays["ids"][0] == 7
    arrays["ids"][1] = 8
    assert arrays["ids"][:2].tolist() == [7, 8]


def _python(script: str) -> subprocess.CompletedProcess:
    src = str(Path(__file__).resolve().parents[2] / "src")
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )


def test_an_interrupted_creator_exits_without_a_trace():
    """A creator interrupted while a forked child still holds the
    mapping: the interrupt propagates, and there is nothing to unlink and
    no resource tracker to complain."""
    proc = _python(
        """
        import multiprocessing
        import numpy as np
        from repro.parallel.rings import shared_arrays

        arrays = shared_arrays({"x": ((1024,), np.float64)})
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=arrays["x"].fill, args=(1.0,))
        child.start()
        child.join()
        assert arrays["x"].sum() == 1024.0
        raise KeyboardInterrupt
        """
    )
    assert proc.returncode != 0 and "KeyboardInterrupt" in proc.stderr
    assert "resource_tracker" not in proc.stderr, proc.stderr


def test_a_process_run_exits_without_resource_tracker_warnings():
    """A whole process-runtime run, in an interpreter of its own, ends
    cleanly: no tracker was started, so none warns at exit."""
    proc = _python(
        """
        from multiprocessing import resource_tracker
        from repro.graph.generators import grid_graph
        from repro.systems import run_app

        result = run_app(
            "d-galois", "bfs", grid_graph(8, 8), 4, runtime="process", workers=2
        )
        assert result.converged
        assert resource_tracker._resource_tracker._pid is None
        """
    )
    assert proc.returncode == 0, proc.stderr
    assert "resource_tracker" not in proc.stderr, proc.stderr
