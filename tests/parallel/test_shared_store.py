"""Shared-memory store lifecycle: create/attach/detach/unlink, no leaks."""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.parallel.shm import SharedArrayStore

SHM_DIR = Path("/dev/shm")

pytestmark = pytest.mark.skipif(
    not SHM_DIR.is_dir(), reason="shared-memory stores need a POSIX /dev/shm"
)


def shm_segments() -> set:
    """Names currently present in /dev/shm (other tenants included)."""
    return set(os.listdir(SHM_DIR))


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test in this module must leave /dev/shm as it found it."""
    before = shm_segments()
    yield
    gc.collect()
    leaked = shm_segments() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


class TestSharedArrayStore:
    def test_create_attach_roundtrip(self):
        arrays = {
            "a": np.arange(100, dtype=np.uint32),
            "b": np.linspace(0.0, 1.0, 37),
            "mask": np.array([True, False, True]),
        }
        creator = SharedArrayStore.create(arrays)
        try:
            attached = SharedArrayStore.attach(creator.manifest)
            for name, arr in arrays.items():
                np.testing.assert_array_equal(attached.views[name], arr)
            attached.close()
        finally:
            creator.release()

    def test_attacher_sees_creator_writes_zero_copy(self):
        creator = SharedArrayStore.create(
            {"x": np.zeros(8, dtype=np.int64)}
        )
        try:
            attached = SharedArrayStore.attach(creator.manifest)
            creator.views["x"][3] = 42
            assert attached.views["x"][3] == 42  # same physical pages
            attached.close()
        finally:
            creator.release()

    def test_release_unlinks_the_segment(self):
        creator = SharedArrayStore.create({"x": np.ones(4)})
        name = creator.manifest.shm_name
        assert name in shm_segments()
        creator.release()
        assert name not in shm_segments()

    def test_attach_after_unlink_raises(self):
        creator = SharedArrayStore.create({"x": np.ones(4)})
        manifest = creator.manifest
        creator.release()
        with pytest.raises(ExecutionError, match="gone"):
            SharedArrayStore.attach(manifest)

    def test_finalizer_unlinks_on_garbage_collection(self):
        creator = SharedArrayStore.create({"x": np.ones(16)})
        name = creator.manifest.shm_name
        del creator
        gc.collect()
        assert name not in shm_segments()

    def test_attacher_close_does_not_unlink(self):
        creator = SharedArrayStore.create({"x": np.ones(4)})
        try:
            attached = SharedArrayStore.attach(creator.manifest)
            attached.close()
            assert creator.manifest.shm_name in shm_segments()
        finally:
            creator.release()

    def test_release_is_idempotent(self):
        creator = SharedArrayStore.create({"x": np.ones(4)})
        creator.release()
        creator.release()


class TestCrashSafety:
    """The unlink guarantee must hold when processes die badly."""

    def test_no_leak_after_attached_worker_is_killed(self):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        store = SharedArrayStore.create({"x": np.arange(4096)})
        name = store.manifest.shm_name

        proc = ctx.Process(
            target=_attach_and_hang, args=(store.manifest,), daemon=True
        )
        proc.start()
        proc.join(timeout=0.2)  # still hanging
        proc.kill()
        proc.join(timeout=10)
        assert proc.exitcode is not None
        store.release()
        assert name not in shm_segments()

    def test_keyboard_interrupt_in_creator_leaves_shm_clean(self):
        script = textwrap.dedent(
            """
            import numpy as np
            from repro.parallel.shm import SharedArrayStore

            store = SharedArrayStore.create({"x": np.ones(1024)})
            print(store.manifest.shm_name, flush=True)
            raise KeyboardInterrupt
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": _src_path()},
        )
        name = proc.stdout.strip()
        assert name, proc.stderr
        assert proc.returncode != 0  # the interrupt propagated
        # The finalizer ran during interpreter shutdown: segment gone,
        # and the resource tracker had nothing left to complain about.
        assert name not in shm_segments()
        assert "resource_tracker" not in proc.stderr, proc.stderr

    def test_normal_exit_leaves_no_resource_tracker_warnings(self):
        script = textwrap.dedent(
            """
            import numpy as np
            from repro.parallel.shm import SharedArrayStore

            store = SharedArrayStore.create({"x": np.arange(64)})
            attached = SharedArrayStore.attach(store.manifest)
            attached.close()
            store.release()
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": _src_path()},
        )
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr


def _attach_and_hang(manifest):  # pragma: no cover - runs in a child
    import time

    SharedArrayStore.attach(manifest)
    time.sleep(300)


def _src_path() -> str:
    return str(Path(__file__).resolve().parents[2] / "src")
