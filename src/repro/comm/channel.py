"""The channel layer: per-peer cross-field message aggregation.

Real Gluon aggregates all synchronization traffic bound for one host
into a single buffer per round (§4, the LCI backend).  This layer is the
reproduction's rendering of that idea: one :class:`Channel` per
``(src, dst)`` host pair buffers each field's encoded sub-message during
a phase and flushes a single multi-field framed buffer (see
:mod:`repro.comm.frame`) to the transport at the phase boundary.  A
round's steady-state message count drops from
``2 x num_fields x peer_pairs`` to ``2 x peer_pairs``, shrinking the
per-message alpha term of the simulated communication time.

:class:`CommPlane` is one host's view of the layer — the substrate talks
to it instead of to the raw transport.  In *pass-through* mode
(``aggregate=False``, the ``--no-aggregation`` ablation) every staged
sub-message is sent immediately as its own transport message, preserving
the historical one-message-per-(field, peer, phase) wire shape bit for
bit.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.comm.frame import decode_frame, encode_frame
from repro.core.serialization import is_empty_message
from repro.errors import SyncError, TransportError
from repro.observability.metrics import NULL_METRICS, MetricsRegistry


class Channel:
    """Phase buffer of one ``(src, dst)`` host pair.

    Holds at most one sub-message per field slot between a phase's
    stage calls and its flush.  A channel is *drained* when no staged
    sub-message is waiting — the invariant the executor checks at every
    round close (mail buffered past a flush boundary would silently
    vanish from the round's traffic).

    A quiet peer's frame — every sub-message the constant EMPTY payload —
    is kept, and a flush of the same sub-messages re-sends it instead of
    encoding it again.
    """

    __slots__ = ("src", "dst", "_staged", "_last")

    def __init__(self, src: int, dst: int) -> None:
        self.src = src
        self.dst = dst
        self._staged: Dict[int, bytes] = {}
        self._last: Optional[Tuple[List[Optional[bytes]], bytes]] = None

    def stage(self, field_index: int, payload: bytes) -> None:
        """Buffer ``payload`` as field ``field_index``'s sub-message."""
        if field_index < 0:
            raise SyncError(f"field index {field_index} must be >= 0")
        if field_index in self._staged:
            raise SyncError(
                f"channel {self.src}->{self.dst}: field {field_index} "
                "already staged this phase"
            )
        self._staged[field_index] = payload

    @property
    def staged_fields(self) -> int:
        """Number of sub-messages waiting for the next flush."""
        return len(self._staged)

    def take_frame(self, num_fields: int) -> Optional[bytes]:
        """Drain the staged sub-messages into one frame (``None`` if idle)."""
        if not self._staged:
            return None
        highest = max(self._staged)
        if highest >= num_fields:
            raise SyncError(
                f"channel {self.src}->{self.dst}: staged field {highest} "
                f"outside the {num_fields}-field frame"
            )
        subs = [self._staged.get(i) for i in range(num_fields)]
        self._staged.clear()
        last = self._last
        if last is not None and last[0] == subs:
            return last[1]
        frame = encode_frame(subs)
        quiet = all(sub is None or is_empty_message(sub) for sub in subs)
        self._last = (subs, frame) if quiet else None
        return frame

    def assert_drained(self) -> None:
        """Raise unless every staged sub-message has been flushed.

        The channel-layer twin of the transport's undelivered-mail check:
        a round must not close while a channel still buffers data.
        """
        if self._staged:
            fields = sorted(self._staged)
            raise TransportError(
                f"round ended with un-flushed channel buffers: channel "
                f"{self.src}->{self.dst} holds {len(fields)} staged "
                f"sub-message(s) for fields {fields}"
            )


class CommPlane:
    """One host's port into the layered communication plane.

    Args:
        host: the owning host id.
        transport: the cluster fabric (plain or fault-injecting).
        aggregate: buffer-and-flush (default) or pass-through ablation.
        metrics: registry for the per-channel instruments
            (``channel_flushes_total``, ``channel_fields_per_flush``).
    """

    def __init__(
        self,
        host: int,
        transport,
        aggregate: bool = True,
        metrics: MetricsRegistry = NULL_METRICS,
    ) -> None:
        self.host = host
        self.transport = transport
        self.aggregate = aggregate
        self.metrics = metrics
        self._channels: Dict[int, Channel] = {}
        self._quiet: Dict[int, Tuple[bytes, List[Optional[bytes]]]] = {}

    def channel(self, peer: int) -> Channel:
        """The (lazily created) channel toward ``peer``."""
        chan = self._channels.get(peer)
        if chan is None:
            if peer == self.host:
                raise SyncError(f"host {self.host}: no channel to itself")
            chan = Channel(self.host, peer)
            self._channels[peer] = chan
        return chan

    def stage(self, peer: int, field_index: int, payload: bytes) -> None:
        """Queue one field sub-message for ``peer`` (or send it now).

        Aggregating: buffered until :meth:`flush`.  Pass-through: sent
        immediately as its own transport message — the historical wire
        shape the ``--no-aggregation`` ablation preserves.
        """
        if not self.aggregate:
            self.transport.send(self.host, peer, payload)
            return
        self.channel(peer).stage(field_index, payload)

    def flush(
        self, num_fields: int, peer_order: Iterable[int]
    ) -> List[Tuple[int, int]]:
        """Flush every non-empty channel, one framed buffer per peer.

        Returns the flushed ``(peer, frame_bytes)`` pairs.  ``peer_order``
        fixes the send order so mailbox contents stay deterministic.
        """
        if not self.aggregate:
            return []
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
                self.metrics.counter(
                    "channel_flushes_total", host=self.host, peer=peer
                ).inc()
                self.metrics.histogram("channel_fields_per_flush").observe(
                    staged
                )
        return flushed

    def receive_frames(self) -> List[Tuple[int, List[Optional[bytes]]]]:
        """Drain the host's mailbox into per-field sub-message lists.

        Returns ``(sender, per-field sub-messages)`` pairs in delivery
        order.  Aggregating: each buffer is a decoded multi-field frame.
        Pass-through: each message is one field's raw payload, yielded
        as a one-slot frame so receivers handle both shapes alike.
        """
        inbox = self.transport.receive_all(self.host)
        if not self.aggregate:
            return [(sender, [payload]) for sender, payload in inbox]
        return [(sender, self._decode(sender, buffer)) for sender, buffer in inbox]

    def _decode(self, sender: int, buffer) -> List[Optional[bytes]]:
        """:func:`decode_frame`, once per quiet frame: a sender re-sending
        the very buffer object of its last all-EMPTY frame gets that
        frame's decoding back."""
        last = self._quiet.get(sender)
        if last is not None and last[0] is buffer:
            return last[1]
        subs = decode_frame(buffer)
        if all(sub is None or is_empty_message(sub) for sub in subs):
            self._quiet[sender] = (buffer, subs)
        return subs

    def assert_drained(self) -> None:
        """Check every channel is drained (see :meth:`Channel.assert_drained`)."""
        if any(chan.staged_fields for chan in self._channels.values()):
            for peer in sorted(self._channels):
                self._channels[peer].assert_drained()
