"""Fixtures shared by the process-runtime tests."""

from __future__ import annotations

import gc
import os

import pytest


@pytest.fixture
def no_leaked_segments():
    """The test must leave ``/dev/shm`` exactly as it found it, whatever
    path the run exits by: a guard against a named segment coming back
    (the state arena and the rings are anonymous mappings)."""
    before = set(os.listdir("/dev/shm"))
    yield
    gc.collect()
    leaked = set(os.listdir("/dev/shm")) - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"
