"""A fault-injecting, self-healing transport wrapper.

:class:`FaultyTransport` wraps the pristine
:class:`~repro.network.transport.InProcessTransport` with the two halves
of a real lossy network stack:

* an **unreliable channel** — driven by the
  :class:`~repro.resilience.faults.FaultInjector`, each send may be
  dropped, duplicated, or corrupted in flight;
* a **reliability layer** — every message travels inside an integrity
  frame (sequence number + CRC-32, see
  :func:`repro.core.serialization.frame_payload`); the receive side
  discards corrupted frames (checksum mismatch) and duplicate sequence
  numbers, and the send side retransmits dropped or corrupted frames.

``receive_all`` therefore returns exactly the clean payload sequence the
sender intended — transient faults never change results, only cost — and
all the extra traffic (wasted first transmissions, duplicates,
retransmissions) flows through the normal
:class:`~repro.network.stats.CommStats` so it shows up in communication
time, while also being tallied separately for the resilience accounting
on :class:`~repro.runtime.stats.RunResult`.

Host crashes are delegated to the inner transport: a dead host raises
:class:`~repro.errors.HostCrashedError` naming the dead host.

The wrapper frames whatever payload the layer above hands it: one
multi-field buffer per peer per phase from the communication plane, so
each buffer carries a single sequence number + CRC-32 — cheaper than
one integrity frame per field — and a corruption costs one
retransmission of the whole buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Optional, Set, Tuple

from repro.core.serialization import (
    FRAME_OVERHEAD,
    frame_payload,
    unframe_payload,
)
from repro.errors import ChecksumError, TransportError
from repro.network.stats import CommStats
from repro.network.transport import InProcessTransport
from repro.resilience.faults import (
    CORRUPT,
    DROP,
    DUPLICATE,
    FaultInjector,
)


#: The most copies of one message :meth:`FaultyTransport.send` ever hands
#: the inner transport (corrupt + clean, or the duplicate pair) — what a
#: transport with pre-sized buffers must leave room for.
MAX_TRANSMISSIONS = 2


@dataclass
class FaultStats:
    """Counters of injected and detected transient faults."""

    #: First transmissions lost in flight (each triggered a retransmit).
    dropped: int = 0
    #: Messages delivered twice by the channel.
    duplicated: int = 0
    #: Messages whose first delivery arrived corrupted.
    corrupted: int = 0
    #: Frames the receive side rejected on checksum mismatch.
    checksum_failures: int = 0
    #: Frames the receive side rejected as duplicate sequence numbers.
    duplicates_discarded: int = 0
    #: Extra bytes the faults put on the wire (wasted transmissions).
    fault_bytes: int = 0
    #: Integrity-frame overhead bytes added to clean transmissions.
    framing_bytes: int = 0

    @property
    def total_injected(self) -> int:
        """Total transient faults injected."""
        return self.dropped + self.duplicated + self.corrupted

    def absorb(self, other: "FaultStats") -> None:
        """Fold another fabric's counters into this total."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


class FaultyTransport:
    """Fault-injecting wrapper with the same interface as the inner transport.

    Args:
        num_hosts: cluster size.
        injector: the run's fault injector (shared across transport
            rebirths so sequence numbers and crash one-shots persist).
        stats: optional pre-existing traffic accounting to append to.
        inner: the channel being made unreliable.  Defaults to a fresh
            :class:`InProcessTransport`; the multiprocess runtime passes
            its :class:`~repro.parallel.rings.RingTransport` so faults
            are injected across real process boundaries.  When ``inner``
            is supplied it brings its own stats (``stats`` must be
            ``None``).
        faults: the counters to add to (a run's one :class:`FaultStats`,
            shared by every fabric it binds); default: fresh ones.
    """

    def __init__(
        self,
        num_hosts: int,
        injector: FaultInjector,
        stats: Optional[CommStats] = None,
        inner=None,
        faults: Optional[FaultStats] = None,
    ) -> None:
        if inner is None:
            inner = InProcessTransport(num_hosts, stats)
        elif stats is not None:
            raise TransportError(
                "an explicit inner transport brings its own stats"
            )
        elif inner.num_hosts != num_hosts:
            raise TransportError(
                f"inner transport has {inner.num_hosts} hosts, "
                f"wrapper expects {num_hosts}"
            )
        self.inner = inner
        self.injector = injector
        self.faults = faults if faults is not None else FaultStats()
        self._seen_seqs: Set[int] = set()
        self._round_fault_bytes = 0

    # -- pass-through surface --------------------------------------------------

    @property
    def num_hosts(self) -> int:
        """Cluster size."""
        return self.inner.num_hosts

    @property
    def stats(self):
        """Exact traffic accounting (includes fault and framing overhead)."""
        return self.inner.stats

    def pending(self, host: int) -> int:
        """Number of undelivered frames queued for ``host``."""
        return self.inner.pending(host)

    def end_round(self) -> None:
        """Close the BSP round on the inner transport."""
        self.inner.end_round()

    def crash(self, host: int) -> None:
        """Kill ``host`` on the inner transport."""
        self.inner.crash(host)

    def is_crashed(self, host: int) -> bool:
        """Whether ``host`` is dead."""
        return self.inner.is_crashed(host)

    @property
    def crashed_hosts(self) -> frozenset:
        """Dead host ids."""
        return self.inner.crashed_hosts

    # -- faulty send / reliable receive ---------------------------------------

    def send(self, src: int, dst: int, payload: bytes) -> None:
        """Send ``payload`` through the unreliable channel.

        The payload is framed (sequence number + checksum); the injector
        then picks the transmission's fate.  Dropped and corrupted frames
        are retransmitted immediately — the BSP executor drains mailboxes
        within the phase, so the retransmission models the reliability
        layer's same-phase recovery, with its bytes fully accounted.
        """
        if not isinstance(payload, (bytes, bytearray, memoryview)):
            raise TransportError(
                f"payload must be bytes-like, got {type(payload)!r}"
            )
        frame = frame_payload(self.injector.next_seq(), bytes(payload))
        self.faults.framing_bytes += FRAME_OVERHEAD
        fate = self.injector.decide_fate()
        if fate == DROP:
            # The first transmission burns the wire but never arrives; the
            # missing sequence number triggers a retransmission.
            self.inner.stats.record(src, dst, len(frame))
            self._account_fault(len(frame))
            self.faults.dropped += 1
            self.inner.send(src, dst, frame)
        elif fate == CORRUPT:
            # The first copy arrives damaged (receiver detects and drops
            # it via the checksum); the retransmission arrives clean.
            self.inner.send(src, dst, self.injector.corrupt(frame))
            self._account_fault(len(frame))
            self.faults.corrupted += 1
            self.inner.send(src, dst, frame)
        elif fate == DUPLICATE:
            self.inner.send(src, dst, frame)
            self._account_fault(len(frame))
            self.faults.duplicated += 1
            self.inner.send(src, dst, frame)
        else:
            self.inner.send(src, dst, frame)

    def receive_all(self, host: int) -> List[Tuple[int, bytes]]:
        """Drain ``host``'s mailbox, returning only clean, deduped payloads."""
        delivered: List[Tuple[int, bytes]] = []
        for sender, frame in self.inner.receive_all(host):
            try:
                seq, payload = unframe_payload(frame)
            except ChecksumError:
                self.faults.checksum_failures += 1
                continue
            if seq in self._seen_seqs:
                self.faults.duplicates_discarded += 1
                continue
            self._seen_seqs.add(seq)
            delivered.append((sender, payload))
        return delivered

    # -- resilience accounting -------------------------------------------------

    def take_round_fault_bytes(self) -> int:
        """Drain the extra bytes faults cost since the last call."""
        nbytes = self._round_fault_bytes
        self._round_fault_bytes = 0
        return nbytes

    def _account_fault(self, nbytes: int) -> None:
        self.faults.fault_bytes += nbytes
        self._round_fault_bytes += nbytes
