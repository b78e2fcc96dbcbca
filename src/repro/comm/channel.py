"""The channel layer: per-peer cross-field message aggregation.

Real Gluon aggregates all synchronization traffic bound for one host
into a single buffer per round (§4, the LCI backend).  Here one
:class:`Channel` per ``(src, dst)`` host pair holds each field's
sub-message during a phase and flushes one multi-field frame (see
:mod:`repro.comm.frame`) at the phase boundary, so a round's steady-state
message count drops from ``2 x num_fields x peer_pairs`` to
``2 x peer_pairs``.  :class:`CommPlane` is one host's view of the layer.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.comm.frame import encode_frame, frame_overhead, frame_slots
from repro.core.serialization import is_empty_message
from repro.errors import SyncError, TransportError
from repro.observability.metrics import NULL_METRICS, MetricsRegistry

#: A frame's per-field ``(start, end)`` byte offsets (``None`` = no message).
Slots = List[Optional[Tuple[int, int]]]


def _short(frame, num_slots: int) -> bool:
    """Whether ``frame`` is no longer than ``num_slots`` framed EMPTY
    messages: only such a frame can be quiet."""
    return len(frame) <= frame_overhead(num_slots) + 2 * num_slots


class Channel:
    """Phase buffer of one ``(src, dst)`` host pair.

    Holds at most one sub-message per field slot, in a list indexed by
    slot (the frame's slots), between a phase's stage calls and its
    flush.  A channel is *drained* when nothing staged waits — the
    invariant the executor checks at every round close.  A quiet peer's
    frame (every sub-message EMPTY) is kept, and a flush of the same
    sub-messages re-sends it instead of encoding it again.
    """

    __slots__ = ("src", "dst", "_slots", "_staged", "_last")

    def __init__(self, src: int, dst: int) -> None:
        self.src = src
        self.dst = dst
        self._slots: List[Optional[bytes]] = []
        self._staged = 0
        self._last: Optional[Tuple[List[Optional[bytes]], bytes]] = None

    def stage(self, field_index: int, payload: bytes) -> None:
        """Buffer ``payload`` as field ``field_index``'s sub-message."""
        slots = self._slots
        missing = field_index - len(slots)
        if missing >= 0:
            if missing:
                slots.extend([None] * missing)
            slots.append(payload)
        elif field_index < 0:
            raise SyncError(f"field index {field_index} must be >= 0")
        elif slots[field_index] is not None:
            raise SyncError(
                f"channel {self.src}->{self.dst}: field {field_index} "
                "already staged this phase"
            )
        else:
            slots[field_index] = payload
        self._staged += 1

    @property
    def staged_fields(self) -> int:
        """Number of sub-messages waiting for the next flush."""
        return self._staged

    def take_frame(self, num_fields: int) -> Optional[bytes]:
        """Drain the staged sub-messages into one frame (``None`` if idle)."""
        if not self._staged:
            return None
        subs = self._slots
        if len(subs) > num_fields:
            raise SyncError(
                f"channel {self.src}->{self.dst}: staged field {len(subs) - 1} "
                f"outside the {num_fields}-field frame"
            )
        if len(subs) < num_fields:
            subs.extend([None] * (num_fields - len(subs)))
        self._slots, self._staged = [], 0
        last = self._last
        if last is not None and last[0] == subs:
            return last[1]
        frame = encode_frame(subs)
        quiet = _short(frame, num_fields) and all(
            sub is None or is_empty_message(sub) for sub in subs
        )
        self._last = (subs, frame) if quiet else None
        return frame

    def assert_drained(self) -> None:
        """Raise unless every staged sub-message has been flushed (the
        channel-layer twin of the transport's undelivered-mail check)."""
        if self._staged:
            fields = [i for i, sub in enumerate(self._slots) if sub is not None]
            raise TransportError(
                f"round ended with un-flushed channel buffers: channel "
                f"{self.src}->{self.dst} holds {len(fields)} staged "
                f"sub-message(s) for fields {fields}"
            )


class CommPlane:
    """One host's port into the layered communication plane: ``transport``
    is the cluster fabric (plain or fault-injecting), and ``metrics``
    gets ``channel_flushes_total`` / ``channel_fields_per_flush``."""

    def __init__(
        self, host: int, transport, metrics: MetricsRegistry = NULL_METRICS
    ) -> None:
        self.host = host
        self.transport = transport
        self.metrics = metrics
        self._channels: Dict[int, Channel] = {}
        self._quiet: Dict[int, Tuple[bytes, Slots]] = {}

    def channel(self, peer: int) -> Channel:
        """The (lazily created) channel toward ``peer``."""
        chan = self._channels.get(peer)
        if chan is None:
            if peer == self.host:
                raise SyncError(f"host {self.host}: no channel to itself")
            chan = Channel(self.host, peer)
            self._channels[peer] = chan
        return chan

    def stage_all(
        self, field_index: int, peers: Sequence[int], payloads: Sequence[bytes]
    ) -> None:
        """Queue field ``field_index``'s sub-message for each of ``peers``
        into its peer's frame slots until :meth:`flush`."""
        channels = self._channels
        for peer, payload in zip(peers, payloads):
            chan = channels.get(peer) or self.channel(peer)
            chan.stage(field_index, payload)

    def flush(
        self, num_fields: int, peer_order: Iterable[int]
    ) -> List[Tuple[int, int]]:
        """Flush every non-empty channel, one frame per peer, in
        ``peer_order``; returns the flushed ``(peer, frame_bytes)`` pairs."""
        flushed: List[Tuple[int, int]] = []
        for peer in peer_order:
            chan = self._channels.get(peer)
            if chan is None:
                continue
            staged = chan.staged_fields
            frame = chan.take_frame(num_fields)
            if frame is None:
                continue
            self.transport.send(self.host, peer, frame)
            flushed.append((peer, len(frame)))
            if self.metrics.enabled:
                self.metrics.counter("channel_flushes_total", host=self.host, peer=peer).inc()
                self.metrics.histogram("channel_fields_per_flush").observe(staged)
        return flushed

    def receive(self) -> List[Tuple[int, bytes, Slots]]:
        """Drain the host's mailbox into ``(sender, buffer, slots)`` triples.

        Each frame's header is parsed once by :func:`frame_slots` — once
        per quiet frame: the very buffer object of a sender's last
        all-EMPTY frame gets that frame's slots back.
        """
        received = []
        for sender, buffer in self.transport.receive_all(self.host):
            last = self._quiet.get(sender)
            if last is not None and last[0] is buffer:
                received.append((sender, buffer, last[1]))
                continue
            slots = frame_slots(buffer)
            if _short(buffer, len(slots)) and all(
                slot is None or is_empty_message(buffer, *slot) for slot in slots
            ):
                self._quiet[sender] = (buffer, slots)
            received.append((sender, buffer, slots))
        return received

    def assert_drained(self) -> None:
        """Check every channel is drained (see :meth:`Channel.assert_drained`)."""
        if any(chan.staged_fields for chan in self._channels.values()):
            for peer in sorted(self._channels):
                self._channels[peer].assert_drained()
