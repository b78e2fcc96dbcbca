"""The rings are sized once, from a closed form: it must cover every frame.

``max_message_bytes`` (next to the encoder) bounds one field's
sub-message, ``GluonSubstrate.max_send_bytes`` composes it over the bound
sync plan into the largest payload a phase hands the transport per peer,
and ``ProcessRunner.start`` adds the fault layer's framing and copies.
A frame that does not fit is a ``TransportError``, not back-pressure — so
the bound is property-tested against real encodes here, and against
every frame of real runs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.codec import encode_global_ids_field, encode_memoized_field
from repro.core.metadata import MetadataMode
from repro.core.optimization import OptimizationLevel
from repro.core.serialization import FRAME_OVERHEAD, max_message_bytes
from repro.core.sync_structures import ADD, FieldSpec
from repro.network.transport import InProcessTransport
from repro.parallel.runner import InProcessRunner
from repro.resilience import FaultPlan, ResilienceConfig
from repro.resilience.faults import FaultInjector
from repro.resilience.transport import MAX_TRANSMISSIONS, FaultyTransport
from repro.systems import run_app

SCALAR_APPS = ["bfs", "sssp", "cc", "pr", "pr-push", "kcore", "bc", "labelprop"]
WIDE = {"feature_dim": 5, "feature_rounds": 3}
FAULTS = ResilienceConfig(
    plan=FaultPlan(drop_rate=0.1, corrupt_rate=0.1, duplicate_rate=0.1, seed=5)
)


class TestClosedForm:
    @settings(max_examples=200, deadline=None)
    @given(
        num_agreed=st.integers(1, 70),
        width=st.sampled_from([1, 2, 5, 9, 32]),
        dtype=st.sampled_from([np.uint32, np.float32, np.float64]),
        compression=st.sampled_from(["delta", "fp16"]),
        temporal=st.booleans(),
        broadcast=st.booleans(),
        density=st.sampled_from([0.02, 0.3, 0.9, 1.0]),
        seed=st.integers(0, 2**16),
    )
    def test_bounds_every_real_encode(
        self, num_agreed, width, dtype, compression, temporal, broadcast,
        density, seed,
    ):
        rng = np.random.default_rng(seed)
        if width == 1 or (compression == "fp16" and dtype is np.uint32):
            compression = "delta"
        shape = (80,) if width == 1 else (80, width)
        values = (rng.random(shape) * 50).astype(dtype)
        field = FieldSpec("f", values, ADD, compression=compression)
        if broadcast and rng.random() < 0.5:
            field.commit_broadcast(np.arange(40))  # some rows now mask out
        agreed = rng.choice(80, size=num_agreed, replace=False).astype(np.uint32)
        updated = rng.random(num_agreed) < density
        bound = max_message_bytes(
            num_agreed, field.value_size, field.width, global_ids=not temporal
        )
        if temporal:
            encoded = encode_memoized_field(field, agreed, updated, broadcast)
        else:
            encoded = encode_global_ids_field(
                field, agreed, updated, np.arange(80, dtype=np.uint32), broadcast
            )
        if encoded is None:
            return
        assert len(encoded.payload) <= bound
        if encoded.mode is MetadataMode.FULL and not encoded.payload[0] & 0x40:
            assert len(encoded.payload) == bound  # FULL rows are the bound, exactly


def observed_and_bound(monkeypatch, app, edges, **job):
    """Run ``app`` on the simulated runtime; per fabric (each bind births
    one), its executor, the largest payload each ``(src, dst)`` pair sent
    through it during rounds, and the payload bytes the coordinator would
    give that pair's ring."""
    seen = {}
    executors = {}
    in_round = []
    plain_send, plain_round = InProcessTransport.send, InProcessRunner.run_round

    def send(self, src, dst, payload):
        if in_round:  # the memoization exchange shares the transport
            sizes = seen.setdefault(id(self), {})
            sizes.setdefault((src, dst), []).append(len(payload))
        plain_send(self, src, dst, payload)

    def run_round(self, ex, round_index):
        transport = getattr(ex.transport, "inner", ex.transport)
        # Every bind (a staged program's next stage, too) births a fabric
        # for its own sync plans: each is held to the bound of those plans.
        executors[id(transport)] = ex, {
            (sub.host, peer): nbytes
            for sub in ex.substrates
            for peer, nbytes in sub.max_send_bytes().items()
        }
        in_round.append(True)
        try:
            return plain_round(self, ex, round_index)
        finally:
            in_round.pop()

    monkeypatch.setattr(InProcessTransport, "send", send)
    monkeypatch.setattr(InProcessRunner, "run_round", run_round)
    run_app("d-galois", app, edges, num_hosts=4, **job)
    framing = FRAME_OVERHEAD if "resilience" in job else 0
    for key, (ex, bound) in executors.items():
        yield ex, seen.get(key, {}), {
            pair: nbytes + framing for pair, nbytes in bound.items()
        }


#: All four levels: OSI ships global ids through mirror-to-master sync
#: plans, OTI memoized ids through all-proxy ones — each mixes the
#: bound's two terms differently from UNOPT and OSTI.
@pytest.mark.parametrize("level", ["unopt", "osi", "oti", "osti"])
class TestEveryFrameOfARun:
    def check(self, monkeypatch, app, edges, level, **job):
        job.update(level=OptimizationLevel.from_name(level))
        pairs = 0
        for ex, seen, bound in observed_and_bound(monkeypatch, app, edges, **job):
            for pair, sizes in seen.items():
                assert max(sizes) <= bound[pair], (pair, max(sizes), bound[pair])
            pairs += len(seen)
        assert pairs  # the run did talk
        return ex

    @pytest.mark.parametrize("app", SCALAR_APPS)
    @pytest.mark.parametrize("policy", ["oec", "cvc"])
    def test_scalar_apps(self, monkeypatch, small_rmat, app, policy, level):
        self.check(monkeypatch, app, small_rmat, level, policy=policy)

    #: labelprop's one-hot votes change few cells a round, so its
    #: messages ship as deltas; featprop's dense rows ship as rows.
    @pytest.mark.parametrize("compression", ["delta", "fp16"])
    @pytest.mark.parametrize("app", ["featprop", "featprop-mean", "labelprop"])
    def test_wide_apps(self, monkeypatch, small_rmat, app, compression, level):
        self.check(
            monkeypatch, app, small_rmat, level,
            policy="iec", compression=compression, **WIDE,
        )

    def test_under_a_fault_plan(self, monkeypatch, small_rmat, level):
        """The fault layer's frames are its own 12 bytes larger."""
        ex = self.check(
            monkeypatch, "pr", small_rmat, level,
            policy="cvc", resilience=FAULTS,
        )
        assert ex.transport.faults.total_injected > 0


@pytest.mark.parametrize("fate", ["drop_rate", "corrupt_rate", "duplicate_rate"])
def test_no_fate_transmits_more_than_the_rings_leave_room_for(fate):
    transport = FaultyTransport(2, FaultInjector(FaultPlan(**{fate: 1.0})))
    for sent in range(1, 4):
        transport.send(0, 1, b"message")
        assert transport.pending(1) <= sent * MAX_TRANSMISSIONS
    assert transport.faults.total_injected == 3


def test_the_bound_is_met_exactly_by_a_dense_run(monkeypatch, small_rmat):
    """pr under OSTI ships FULL every round: the slot has no slack."""
    job = dict(policy="oec", level=OptimizationLevel.OSTI)
    ((_, seen, bound),) = observed_and_bound(monkeypatch, "pr", small_rmat, **job)
    assert any(max(sizes) == bound[pair] for pair, sizes in seen.items())


@pytest.mark.parametrize(
    "app, job",
    [
        ("pr", dict(policy="cvc", level=OptimizationLevel.UNOPT)),
        ("pr", dict(policy="cvc", resilience=FAULTS)),
        ("featprop", dict(policy="iec", compression="delta", resilience=FAULTS, **WIDE)),
        ("featprop", dict(policy="iec", compression="fp16", **WIDE)),
    ],
    ids=["unopt", "faults", "delta-faults", "fp16"],
)
def test_the_process_runtime_fits_its_rings(small_rmat, app, job):
    """The coordinator's composition (framing, copies, two phases) is
    exercised for real: an undersized slot or ring raises, so finishing
    is the assertion — with one worker, where nothing ever drains early."""
    for workers in (1, 3):
        result = run_app(
            "d-galois", app, small_rmat, num_hosts=4,
            runtime="process", workers=workers, **job,
        )
        assert result.converged or result.num_rounds > 0
