"""Wide-field codec: property tests for (n, d) payloads and compression.

The wide extension must be invisible to scalar fields (1-D payloads keep
their exact wire bytes), and every (metadata mode x dtype x mask density
x compression) combination of a matrix-valued field must survive an
encode/decode round trip: bit for bit under ``delta``, and within
half-precision relative error under ``fp16``.  A lossless wide message
is exactly the shorter of its two forms, rows or delta, each built by
the independent encoder kept in ``tests/comm/old_sync.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.codec import (
    decode_field_payload,
    encode_global_ids_field,
    encode_memoized_field,
)
from repro.core.metadata import MetadataMode, select_mode
from repro.core.serialization import decode_message, encode_messages
from repro.core.sync_structures import ADD, MIN, FieldSpec
from repro.errors import SerializationError, SyncError
from repro.features import FP16_RELATIVE_ERROR

from tests.comm import old_sync
from tests.comm.test_codec import StubPartition, make_mask

#: dtypes the feature subsystem actually ships wide.
WIDE_DTYPES = [np.float32, np.float64, np.int32]

DENSITIES = [0.0, 0.02, 0.4, 1.0]

#: Wire-header flag bits (mirrors repro.core.serialization).
FLAG_WIDE = 0x80
FLAG_DELTA = 0x40


def make_wide_field(rng, dtype, num_locals, width, reduce_op=ADD, name="w"):
    if np.issubdtype(dtype, np.floating):
        values = rng.random((num_locals, width)).astype(dtype)
    else:
        values = rng.integers(0, 10_000, size=(num_locals, width)).astype(dtype)
    return FieldSpec(name, values, reduce_op)


class TestWideMemoizedRoundTrip:
    @pytest.mark.parametrize("dtype", WIDE_DTYPES)
    @pytest.mark.parametrize("density", DENSITIES)
    def test_round_trip(self, dtype, density):
        rng = np.random.default_rng(
            WIDE_DTYPES.index(dtype) * 10 + DENSITIES.index(density)
        )
        num_locals, width = 300, 16
        field = make_wide_field(rng, dtype, num_locals, width)
        agreed = rng.choice(num_locals, size=150, replace=False).astype(
            np.uint32
        )
        mask = make_mask(rng, len(agreed), density)

        encoded = encode_memoized_field(field, agreed, mask)
        expected_mode = select_mode(
            len(agreed), int(mask.sum()), field.value_size
        )
        assert encoded.mode is expected_mode

        recv_agreed = rng.choice(400, size=len(agreed), replace=False).astype(
            np.uint32
        )
        decoded = decode_field_payload(
            encoded.payload, {7: recv_agreed}, 7, StubPartition([])
        )
        if encoded.mode is MetadataMode.EMPTY:
            assert decoded is None
            # An empty payload must not claim row structure it cannot
            # carry: the WIDE flag stays clear so old decoders still read
            # zero values.
            assert encoded.payload[0] & FLAG_WIDE == 0
            return
        assert encoded.payload[0] & FLAG_WIDE
        if encoded.mode is MetadataMode.FULL:
            assert np.array_equal(decoded.lids, recv_agreed)
            assert np.array_equal(decoded.values, field.values[agreed])
        else:
            positions = np.flatnonzero(mask)
            assert np.array_equal(decoded.lids, recv_agreed[positions])
            assert np.array_equal(
                decoded.values, field.values[agreed[positions]]
            )
        assert decoded.values.ndim == 2
        assert decoded.values.shape[1] == width
        assert decoded.values.dtype == field.dtype

    def test_scalar_wire_bytes_unchanged(self):
        """A 1-D field's payload never carries the WIDE flag: old wire
        bytes stay byte-identical, so mixed-version hosts interoperate."""
        rng = np.random.default_rng(3)
        values = rng.random(40)
        field = FieldSpec("f", values, MIN)
        agreed = np.arange(20, dtype=np.uint32)
        for updates in (0, 2, 20):
            mask = np.zeros(len(agreed), dtype=bool)
            mask[:updates] = True
            encoded = encode_memoized_field(field, agreed, mask)
            assert encoded.payload[0] & FLAG_WIDE == 0
            assert encoded.payload[0] & FLAG_DELTA == 0

    @given(
        data=st.data(),
        width=st.integers(min_value=2, max_value=9),
        num_agreed=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_geometry_round_trips(self, data, width, num_agreed):
        seed = data.draw(st.integers(min_value=0, max_value=2**31))
        rng = np.random.default_rng(seed)
        num_locals = num_agreed + data.draw(
            st.integers(min_value=0, max_value=30)
        )
        field = make_wide_field(rng, np.float64, num_locals, width)
        agreed = rng.choice(
            num_locals, size=num_agreed, replace=False
        ).astype(np.uint32)
        mask = rng.random(num_agreed) < data.draw(
            st.floats(min_value=0.0, max_value=1.0)
        )
        encoded = encode_memoized_field(field, agreed, mask)
        decoded = decode_field_payload(
            encoded.payload, {1: agreed}, 1, StubPartition([])
        )
        if not mask.any():
            assert decoded is None
            return
        lids = agreed if encoded.mode is MetadataMode.FULL else agreed[mask]
        assert np.array_equal(decoded.lids, lids)
        assert np.array_equal(decoded.values, field.values[lids])


class TestWideGlobalIdsRoundTrip:
    @pytest.mark.parametrize("dtype", WIDE_DTYPES)
    @pytest.mark.parametrize("density", DENSITIES)
    def test_round_trip(self, dtype, density):
        rng = np.random.default_rng(
            500 + WIDE_DTYPES.index(dtype) * 10 + DENSITIES.index(density)
        )
        num_locals, width = 80, 8
        sender_l2g = rng.choice(1000, size=num_locals, replace=False).astype(
            np.uint32
        )
        field = make_wide_field(rng, dtype, num_locals, width)
        agreed = rng.choice(num_locals, size=40, replace=False).astype(
            np.uint32
        )
        mask = make_mask(rng, len(agreed), density)

        encoded = encode_global_ids_field(field, agreed, mask, sender_l2g)
        if not mask.any():
            assert encoded is None
            return
        # Receiver maps the same globals to different locals.
        recv_l2g = np.arange(1000, dtype=np.uint32)[::-1]
        partition = StubPartition(recv_l2g)
        decoded = decode_field_payload(
            encoded.payload, {}, 3, partition
        )
        sent_lids = agreed[mask]
        assert np.array_equal(
            decoded.lids, partition.to_local_array(sender_l2g[sent_lids])
        )
        assert np.array_equal(decoded.values, field.values[sent_lids])
        assert decoded.translations == len(sent_lids)


class TestFp16Compression:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        width=st.integers(min_value=2, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_within_half_precision_bound(self, seed, width):
        rng = np.random.default_rng(seed)
        num_locals = 60
        values = (rng.random((num_locals, width)) * 8 - 4).astype(np.float64)
        field = FieldSpec("h", values, ADD, compression="fp16")
        agreed = np.arange(30, dtype=np.uint32)
        mask = np.ones(30, dtype=bool)
        encoded = encode_memoized_field(field, agreed, mask)
        decoded = decode_field_payload(
            encoded.payload, {2: agreed}, 2, StubPartition([]), field=field
        )
        # The wire carries half precision; FieldSpec.reduce/set widen back.
        assert decoded.values.dtype == np.float16
        err = np.abs(decoded.values.astype(np.float64) - values[:30])
        bound = FP16_RELATIVE_ERROR * np.maximum(np.abs(values[:30]), 1.0)
        assert (err <= bound).all()

    def test_exact_for_representable_values(self):
        """Integer-valued features inside fp16's mantissa round-trip
        bitwise — the basis of the labelprop one-hot exactness claim."""
        rng = np.random.default_rng(9)
        values = rng.integers(-512, 512, size=(40, 6)).astype(np.float64)
        field = FieldSpec("h", values, ADD, compression="fp16")
        agreed = np.arange(40, dtype=np.uint32)
        encoded = encode_memoized_field(
            field, agreed, np.ones(40, dtype=bool)
        )
        decoded = decode_field_payload(
            encoded.payload, {2: agreed}, 2, StubPartition([]), field=field
        )
        assert np.array_equal(decoded.values.astype(np.float64), values)

    def test_overflow_is_a_named_error_not_inf(self):
        """A finite value past the float16 range must not ship as inf
        (featprop at rmat14/d=32 scale reaches ~6.6e5)."""
        values = np.ones((8, 4), dtype=np.float64)
        values[3, 2] = -658060.0
        field = FieldSpec("feat_acc", values, ADD, compression="fp16")
        agreed = np.arange(8, dtype=np.uint32)
        with pytest.raises(SyncError, match=r"'feat_acc'.*658060"):
            encode_memoized_field(field, agreed, np.ones(8, dtype=bool))
        with pytest.raises(SyncError, match=r"'feat_acc'.*658060"):
            encode_global_ids_field(
                field, agreed, np.ones(8, dtype=bool), np.arange(8)
            )
        # A non-finite input is the application's value, not an overflow.
        values[3, 2] = np.inf
        encode_memoized_field(field, agreed, np.ones(8, dtype=bool))


class TestDeltaCompression:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        density=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_broadcast_round_trip(self, seed, density):
        """Receiver base + shipped columns == sender rows, whatever
        subset of rows was previously committed."""
        rng = np.random.default_rng(seed)
        num_locals, width = 50, 8
        field = make_wide_field(rng, np.float64, num_locals, width)
        committed = np.flatnonzero(rng.random(num_locals) < 0.6)
        field.commit_broadcast(committed)
        # Receiver's copy matches the sender's committed cache (the delta
        # contract); uncommitted rows differ arbitrarily.
        recv_values = rng.random((num_locals, width))
        recv_values[committed] = field.broadcast_values[committed]
        recv_field = FieldSpec("w", recv_values, ADD)
        # Sender mutates a sparse set of columns, then broadcasts.
        flips = rng.random((num_locals, width)) < density
        field.broadcast_values[flips] += 1.0

        agreed = np.arange(num_locals, dtype=np.uint32)
        mask = np.ones(num_locals, dtype=bool)
        encoded = encode_memoized_field(field, agreed, mask, broadcast=True)
        decoded = decode_field_payload(
            encoded.payload,
            {4: agreed},
            4,
            StubPartition([]),
            field=recv_field,
            broadcast=True,
        )
        assert np.array_equal(decoded.values, field.broadcast_values)

    def test_uncommitted_rows_ship_whole(self):
        """Rows never committed must not trust the receiver's copy."""
        rng = np.random.default_rng(21)
        field = make_wide_field(rng, np.float64, 10, 4)
        # No commit at all: every row ships every column.
        agreed = np.arange(10, dtype=np.uint32)
        encoded = encode_memoized_field(
            field, agreed, np.ones(10, dtype=bool), broadcast=True
        )
        recv_field = FieldSpec("w", np.full((10, 4), -99.0), ADD)
        decoded = decode_field_payload(
            encoded.payload,
            {4: agreed},
            4,
            StubPartition([]),
            field=recv_field,
            broadcast=True,
        )
        assert np.array_equal(decoded.values, field.broadcast_values)

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        density=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_reduce_round_trip_vs_identity(self, seed, density):
        """Reduce deltas are stateless: unshipped columns reconstruct to
        the reduction identity, so the fold is lossless for any op."""
        rng = np.random.default_rng(seed)
        num_locals, width = 40, 6
        values = np.where(
            rng.random((num_locals, width)) < density,
            rng.random((num_locals, width)) + 0.5,
            0.0,
        )
        field = FieldSpec("acc", values, ADD)
        agreed = np.arange(num_locals, dtype=np.uint32)
        encoded = encode_memoized_field(
            field, agreed, np.ones(num_locals, dtype=bool)
        )
        decoded = decode_field_payload(
            encoded.payload, {4: agreed}, 4, StubPartition([]), field=field
        )
        if decoded is None:
            assert not values.any()
            return
        assert np.array_equal(decoded.values, values[decoded.lids])

    def test_delta_without_field_rejected(self):
        rng = np.random.default_rng(5)
        field = make_wide_field(rng, np.float64, 12, 4)
        field.values[:, 1:] = 0.0  # sparse rows: the delta is shorter
        agreed = np.arange(12, dtype=np.uint32)
        encoded = encode_memoized_field(
            field, agreed, np.ones(12, dtype=bool)
        )
        assert encoded.payload[0] & FLAG_DELTA
        with pytest.raises(SyncError, match="without a field"):
            decode_field_payload(
                encoded.payload, {4: agreed}, 4, StubPartition([])
            )

    def test_cache_reset_on_rebuild(self):
        """A rebuilt FieldSpec (repartition, worker restart) starts with
        an empty delta cache: its first broadcast ships rows whole, so
        receivers never reconstruct against a stale baseline."""
        rng = np.random.default_rng(13)
        values = rng.random((20, 4))
        field = FieldSpec("w", values.copy(), ADD)
        lids = np.arange(20)
        field.commit_broadcast(lids)
        cached, sent = field.delta_state(lids)
        assert sent.all()
        assert np.array_equal(cached, values)
        # make_fields after a repartition constructs a fresh FieldSpec
        # over the migrated arrays — the cache does not travel with them.
        rebuilt = FieldSpec("w", values.copy(), ADD)
        cached, sent = rebuilt.delta_state(lids)
        assert not sent.any()
        encoded = encode_memoized_field(
            rebuilt,
            lids.astype(np.uint32),
            np.ones(20, dtype=bool),
            broadcast=True,
        )
        recv_field = FieldSpec("w", np.zeros((20, 4)), ADD)
        decoded = decode_field_payload(
            encoded.payload,
            {4: lids.astype(np.uint32)},
            4,
            StubPartition([]),
            field=recv_field,
            broadcast=True,
        )
        assert np.array_equal(decoded.values, values)


#: Bytes before a FULL wide message's packed masks: tag, dtype, width, count.
WIDE_FULL_HEAD = 8


def full_delta_message(width, mask):
    """A FULL delta message of ``len(mask)`` float32 rows, as a bytearray,
    written by ``old_sync``'s encoder, which ships any mask as a delta
    (the product's would ship the rows whenever that is no longer)."""
    rows = np.arange(mask.size, dtype=np.float32).reshape(mask.shape)
    return bytearray(
        old_sync.encode_message(MetadataMode.FULL, rows, width=width, delta_mask=mask)
    )


class TestCanonicalDeltaMask:
    """A row's packed column mask has one encoding: the encoder leaves the
    bits past ``width`` clear, and the decoder refuses a mask that sets
    one instead of dropping it."""

    def test_a_set_padding_bit_is_rejected_naming_the_row(self):
        mask = np.array([[True, False, True], [True, True, True]])
        raw = full_delta_message(3, mask)
        assert decode_message(bytes(raw)).delta_mask.tolist() == mask.tolist()
        raw[WIDE_FULL_HEAD + 1] |= 0x01  # row 1's spare lowest bit
        with pytest.raises(SerializationError, match="row 1 sets padding bits"):
            decode_message(bytes(raw))

    @pytest.mark.parametrize("width", [2, 3, 7, 9, 12, 15])
    def test_every_padding_bit_of_every_row_is_checked(self, width):
        rows = 3
        per_row = (width + 7) // 8
        raw = full_delta_message(width, np.ones((rows, width), dtype=bool))
        for row in range(rows):
            last = WIDE_FULL_HEAD + row * per_row + per_row - 1
            assert raw[last] & ((1 << (-width % 8)) - 1) == 0  # encoder: clear
            for bit in range(-width % 8):
                mutated = bytearray(raw)
                mutated[last] |= 1 << bit
                with pytest.raises(SerializationError, match=f"row {row} "):
                    decode_message(bytes(mutated))

    @pytest.mark.parametrize("width", [8, 16])
    def test_a_whole_mask_byte_has_no_padding(self, width):
        mask = np.ones((2, width), dtype=bool)
        assert decode_message(bytes(full_delta_message(width, mask))).delta_mask.all()

    @pytest.mark.parametrize("broadcast", [False, True], ids=["reduce", "broadcast"])
    def test_an_all_shipped_delta_decodes_to_its_rows(self, broadcast):
        """The encoder ships an all-set mask as plain rows, but a DELTA
        message that sets every bit is still well formed: it decodes to
        its rows, whatever the receiver holds."""
        mask = np.ones((3, 5), dtype=bool)
        raw = bytes(full_delta_message(5, mask))
        assert raw[0] & FLAG_DELTA
        field = FieldSpec("w", np.full((3, 5), -7.0, dtype=np.float32), ADD)
        agreed = np.arange(3, dtype=np.uint32)
        decoded = decode_field_payload(
            raw, {1: agreed}, 1, StubPartition([]), field=field, broadcast=broadcast
        )
        assert np.array_equal(decoded.values, np.arange(15).reshape(3, 5))

    @pytest.mark.parametrize("whole", [True, False], ids=["all-shipped", "partial"])
    def test_a_value_short_or_long_is_rejected(self, whole):
        """The value section's size is checked against the mask, for an
        all-set mask as for a partial one."""
        mask = np.ones((3, 4), dtype=bool)
        if not whole:
            mask[1, 2] = False
        raw = bytes(full_delta_message(4, mask))
        value = np.dtype(np.float32).itemsize
        for mutated in (raw[:-value], raw + bytes(value)):
            with pytest.raises(SerializationError, match="delta values"):
                decode_message(mutated)


class TestTheShorterForm:
    """A lossless wide message is exactly the shorter of its two forms."""

    @given(
        data=st.data(),
        dtype=st.sampled_from(WIDE_DTYPES),
        width=st.integers(min_value=2, max_value=20),
        sizes=st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=5),
        density=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_each_message_is_the_shorter_form(self, data, dtype, width, sizes, density):
        """One pass of several messages: each is byte-identical to the
        shorter of ``old_sync``'s rows and delta encodings of its slice
        (the rows on a tie), and decodes to the rows it was given.  The
        mask marks the cells that differ from zero, as a reduce's does,
        so a delta decodes against that identity."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        rows = np.cumsum([0, *sizes]).tolist()
        cells = (rows[-1], width)
        values = np.where(rng.random(cells) < density, rng.integers(1, 99, cells), 0)
        values = values.astype(dtype)
        mask = values != 0
        modes = [
            data.draw(st.sampled_from(["FULL", "BITVEC", "INDICES", "GLOBAL_IDS"]))
            if size else "EMPTY"
            for size in sizes
        ]
        ids = rng.integers(0, 1 << 20, rows[-1]).astype(np.uint32)
        # BITVEC: message i's rows are the set bits of its agreed span.
        spans = [size + int(rng.integers(0, 6)) for size in sizes]
        bits = np.concatenate([
            rng.permutation(np.arange(span) < size) for span, size in zip(spans, sizes)
        ])
        agreed = np.cumsum([0, *spans]).tolist()
        messages = encode_messages(
            [int(MetadataMode[mode]) for mode in modes], values, rows,
            bits=bits, agreed=agreed, ids=ids, width=width, delta_mask=mask,
        )
        for i, (mode, message) in enumerate(zip(modes, messages)):
            if mode == "EMPTY":
                continue
            seg = slice(rows[i], rows[i + 1])
            selection = {
                "FULL": None, "BITVEC": np.flatnonzero(bits[agreed[i] : agreed[i + 1]]),
            }.get(mode, ids[seg])
            forms = [
                old_sync.encode_message(
                    MetadataMode[mode], values[seg], num_agreed=spans[i],
                    selection=selection, width=width, delta_mask=delta_mask,
                )
                for delta_mask in (None, mask[seg])
            ]
            assert message == min(forms, key=len)  # min keeps the first on a tie
            decoded = decode_message(message)
            if decoded.delta_mask is None:
                got = decoded.values
            else:
                got = np.zeros((sizes[i], width), dtype=dtype)
                got[decoded.delta_mask] = decoded.values
            assert np.array_equal(got, values[seg])

    @pytest.mark.parametrize("dtype", WIDE_DTYPES)
    @pytest.mark.parametrize("width", [2, 3, 8, 9, 17, 32])
    def test_a_tie_ships_rows_and_one_cell_fewer_ships_delta(self, width, dtype):
        """With ``itemsize`` rows, the delta form costs exactly the rows'
        bytes at ``itemsize * width - ceil(width / 8)`` shipped cells.
        That tie ships the rows; one cell fewer ships the delta, which is
        then one value shorter than the rows."""
        itemsize = np.dtype(dtype).itemsize
        rows, tie = itemsize, itemsize * width - -(-width // 8)
        values = np.arange(1, rows * width + 1).astype(dtype).reshape(rows, width)
        rows_form = old_sync.encode_message(MetadataMode.FULL, values, width=width)
        for cells, flag in ((tie, 0), (tie - 1, FLAG_DELTA)):
            mask = (np.arange(rows * width) < cells).reshape(rows, width)
            shipped = np.where(mask, values, 0).astype(dtype)
            (message,) = encode_messages(
                [int(MetadataMode.FULL)], shipped, [0, rows],
                width=width, delta_mask=mask,
            )
            assert message[0] & FLAG_DELTA == flag
            assert len(message) == len(rows_form) - (itemsize if flag else 0)
            decoded = decode_message(message)
            got = decoded.values
            if flag:
                got = np.zeros_like(shipped)
                got[decoded.delta_mask] = decoded.values
            assert np.array_equal(got, shipped)
