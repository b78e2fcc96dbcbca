"""Nothing a receive leaves behind aliases the frame it came in.

The decoder hands out read-only views into the received buffer: a wide
message shipped as plain rows comes back as those rows, in place.
In the process runtime that buffer is a ring slot, reused by a later
phase, so an apply that kept a view instead of copying would see its
values change under it.  A spy around ``GluonSubstrate._receive_all``
checks, after every receive of a real run, that no field array shares
memory with any buffer the receive read; it counts in shared memory, so
the checks made inside forked workers are counted too.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

import repro.comm.codec as codec
from repro.comm.frame import decode_frame
from repro.core.optimization import OptimizationLevel
from repro.core.substrate import GluonSubstrate
from repro.errors import SerializationError
from repro.graph.generators import rmat
from repro.systems import run_app
from tests.comm.test_inbound_fuzz import Cluster, framed

EDGES = rmat(scale=7, edge_factor=8, seed=4)
PHASES = ("reduce", "broadcast")


def spy_on_receives(monkeypatch):
    """Check every receive for aliasing; returns the shared counters:
    frames checked per phase, and wide messages decoded as plain rows."""
    counts = multiprocessing.get_context("fork").Array("i", 3)
    plain_receive, plain_read = GluonSubstrate._receive_all, codec.read_message

    def receive_all(self, fields, phase):
        plane = self.plane
        received = plane.receive()
        plane.receive = lambda: received
        try:
            changed = plain_receive(self, fields, phase)
        finally:
            del plane.receive
        for sender, buffer, _ in received:
            frame = np.frombuffer(buffer, np.uint8)
            for field in fields:
                for array in (field.values, field.broadcast_values):
                    assert not np.shares_memory(array, frame), (
                        f"host {self.host}: field {field.name!r} aliases the "
                        f"{phase} frame from {sender}"
                    )
        with counts.get_lock():
            counts[PHASES.index(phase)] += len(received)
        return changed

    def read_message(*args):
        message = plain_read(*args)
        _, _, _, width, delta_mask = message
        if width and delta_mask is None:
            with counts.get_lock():
                counts[2] += 1
        return message

    monkeypatch.setattr(GluonSubstrate, "_receive_all", receive_all)
    monkeypatch.setattr(codec, "read_message", read_message)
    return counts


@pytest.mark.parametrize("runtime", ["simulated", "process"])
def test_no_field_array_shares_memory_with_a_received_frame(monkeypatch, runtime):
    counts = spy_on_receives(monkeypatch)
    job = dict(runtime=runtime, workers=2) if runtime == "process" else {}
    result = run_app(
        "d-galois", "featprop", EDGES, 4, policy="cvc", feature_dim=6, feature_rounds=3, **job,
    )
    assert result.converged
    reduces, broadcasts, whole = counts[:]
    assert reduces and broadcasts  # both phases were received and checked
    assert whole  # and some wide rows landed as shipped, in place


def test_a_delta_section_one_value_off_is_rejected_on_receive():
    """A frame whose delta message carries one value too few or too many
    never reaches a field."""
    cluster = Cluster("delta", OptimizationLevel.OTI)
    frame = cluster.capture("reduce", 1.0)
    (raw,) = map(bytes, decode_frame(frame))
    value = cluster.fields[0][0].values.dtype.itemsize
    before = cluster.fields[0][0].values.copy()
    for mutated in (raw[:-value], raw + bytes(value)):
        with pytest.raises(SerializationError, match="delta values"):
            cluster.deliver("reduce", framed(mutated))
    assert np.array_equal(cluster.fields[0][0].values, before)
    assert cluster.deliver("reduce", frame)[0].any()
