"""Shared-memory rings: the inter-process transport of ``--runtime process``.

:func:`shared_arrays` is the runtime's one allocator of memory that
forked processes *write*: the coordinator's state arena and the rings.

A :class:`RingFabric` is one shared mapping: a single-producer /
single-consumer ring of fixed-size slots per ``(src, dst)`` host pair the
sync plan routes, a finished-phase counter per host, and a doorbell
semaphore per host.  The coordinator lays it out once — the partition
never changes (§4), so neither do the worst-case frames — and every
forked worker builds a :class:`RingTransport` over it, with the surface
of :class:`~repro.network.transport.InProcessTransport` (``send``,
``receive_all``, ``pending``, ``crash``, ``is_crashed``,
``crashed_hosts``, ``end_round``, ``stats``), so the Gluon substrate, the
comm plane and the fault-injecting wrapper run over it unchanged.
DESIGN §12 has the layout and the arguments; in short:

* **One copy in.**  ``send`` writes ``seq | crc32 | len | phase |
  payload`` into the pair's next slot: the CRC-32 integrity frame of
  :func:`repro.core.serialization.frame_payload` (sequence numbers
  namespaced per source host), computed by the sender and verified by the
  receiver over the slot's bytes.
* **A view out.**  ``receive_all`` blocks until every live peer has
  published the end of the phase, then returns read-only views of the
  slots, ascending sender and FIFO within a sender — the simulated
  mailbox order, so results stay bitwise identical.  The slots stay the
  consumer's until that host's next ``receive_all`` or ``finish_phase``.
  A producer that finds no released slot, or a payload larger than a
  slot, gets a :class:`TransportError`: the rings are sized for the worst
  case, and at one worker the producer *is* the consumer — waiting would
  be a hang.  A receiver waits in :data:`LIVENESS_POLL_S` slices, so a
  worker whose coordinator died stops waiting within one.
* **One doorbell per peer per phase.**  ``finish_phase`` stores the
  host's counter, then posts each peer's semaphore; a woken receiver
  re-compares counters, so a fast peer's next-phase bell never stands in
  for a slow peer's missing one.
* **Phased traffic records.**  ``stats`` captures ``(src, dst, nbytes)``
  per phase instead of pricing anything; the coordinator replays all
  workers' records in the simulated runtime's order, which keeps the
  alpha-beta "cluster time" bitwise identical.

Counters are aligned 8-byte words with one writer each; a frame's bytes
are stored before its ring's tail, the tail before the phase counter.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import struct
import time
from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Tuple

import numpy as np

from repro.core.serialization import frame_crc
from repro.errors import HostCrashedError, TransportError

#: Sequence-number namespace stride per source host: each host may send
#: up to 2**40 frames before its namespace would touch the next one.
SEQ_STRIDE = 1 << 40

#: Default seconds a blocking receive waits for a peer before declaring
#: the cluster wedged (a crashed worker, not a slow one).
DEFAULT_RECEIVE_TIMEOUT_S = 120.0

#: Seconds between liveness checks while a process waits: the
#: coordinator's for dead workers, a worker's for a dead coordinator.
LIVENESS_POLL_S = 1.0

#: Slot header: the integrity frame's u64 sequence number and u32 CRC-32
#: of (sequence || payload), then the payload length and the send phase.
_SLOT = struct.Struct("<QIIQ")


def shared_arrays(
    layout: Mapping[Hashable, Tuple[Tuple[int, ...], np.dtype]],
) -> Dict[Hashable, np.ndarray]:
    """Zero-filled ``name -> (shape, dtype)`` arrays, 8-byte aligned, in
    one anonymous ``MAP_SHARED`` mapping.

    Made before a ``fork``, the mapping is shared with every child, so a
    write by any process is visible to all.  It has no name to attach,
    unlink or leak: each array holds a reference to the mapping, and the
    kernel frees the pages once the last process drops it.
    """
    offsets, size = {}, 0
    for name, (shape, dtype) in layout.items():
        offsets[name] = size = (size + 7) // 8 * 8
        size += int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
    pages = mmap.mmap(-1, max(size, 1))
    return {
        name: np.ndarray(shape, dtype=dtype, buffer=pages, offset=offsets[name])
        for name, (shape, dtype) in layout.items()
    }


@dataclass(frozen=True)
class Ring:
    """Where one ``src -> dst`` ring lives inside the fabric's slots."""

    src: int
    dst: int
    #: Control-word index of the producer's tail; the consumer's head
    #: follows it.  Both count slots and only ever grow.
    tail: int
    #: Byte offset of slot 0; slot ``i`` starts ``i % slots * stride`` on.
    base: int
    slots: int
    #: Largest payload a slot holds; a slot is header + room, 8-aligned.
    room: int
    stride: int


class RingFabric:
    """The wiring of one process-backed cluster, laid out once.

    ``shape`` maps each ``(src, dst)`` pair that can talk to its
    ``(slots, payload_bytes)``; other pairs get no ring.  Control words:
    ``[0, num_hosts)`` are the hosts' finished-phase counters, then a
    ``tail, head`` pair per ring.
    """

    def __init__(
        self, num_hosts: int, shape: Mapping[Tuple[int, int], Tuple[int, int]], ctx
    ) -> None:
        self.num_hosts = num_hosts
        self.rings: Dict[Tuple[int, int], Ring] = {}
        #: Per receiving host, its rings in ascending-sender order.
        self.into: List[List[Ring]] = [[] for _ in range(num_hosts)]
        words, nbytes = num_hosts, 0
        for (src, dst), (slots, room) in sorted(shape.items()):
            stride = (_SLOT.size + room + 7) // 8 * 8
            ring = Ring(src, dst, words, nbytes, slots, room, stride)
            self.rings[src, dst] = ring
            self.into[dst].append(ring)
            words += 2
            nbytes += slots * ring.stride
        shared = shared_arrays(
            {"control": ((words,), np.int64), "slots": ((nbytes,), np.uint8)}
        )
        self.control, self.slots = shared["control"], shared["slots"]
        self.bells = [ctx.Semaphore(0) for _ in range(num_hosts)]


class PhasedCommRecords:
    """Per-phase ``(src, dst, nbytes)`` capture with CommStats's record API.

    The fault-injecting wrapper calls ``stats.record`` directly for
    dropped first transmissions; routing everything through this object
    keeps that accounting in the right phase bucket.
    """

    def __init__(self, transport: "RingTransport") -> None:
        self._transport = transport
        self._records: Dict[int, Dict[int, List[Tuple[int, int]]]] = {}

    def record(self, src: int, dst: int, nbytes: int) -> None:
        """Attribute one message to the sender's current phase."""
        phase = self._transport._send_phase[src]
        bucket = self._records.setdefault(phase, {}).setdefault(src, [])
        bucket.append((dst, nbytes))

    def take(self) -> Dict[int, Dict[int, List[Tuple[int, int]]]]:
        """Drain and return the accumulated per-phase records."""
        records = self._records
        self._records = {}
        return records

    def end_round(self) -> None:
        """No-op (rounds are closed by the coordinator's replay)."""


class RingTransport:
    """One worker's port into a :class:`RingFabric`.

    A host's sends and receives both go through the transport of the
    worker that owns it, so every ring has one producing and one
    consuming instance and each host's phase counters live in one place.
    """

    def __init__(
        self, fabric: RingFabric, receive_timeout_s: float = DEFAULT_RECEIVE_TIMEOUT_S
    ) -> None:
        self.fabric = fabric
        self.num_hosts = fabric.num_hosts
        self.receive_timeout_s = receive_timeout_s
        self._control = memoryview(fabric.control)
        self._slots = memoryview(fabric.slots)
        #: The coordinator's pid when this runs in a forked worker.
        parent = multiprocessing.parent_process()
        self._coordinator = parent.pid if parent is not None else None
        self._send_phase = [0] * self.num_hosts
        self._recv_phase = [0] * self.num_hosts
        self._seq = [0] * self.num_hosts
        self._dead: set = set()
        #: Slots delivered per ring (consumer side; runs ahead of the
        #: shared head until the slots are released).
        self._cursor = {
            ring.tail: self._control[ring.tail + 1]
            for ring in fabric.rings.values()
        }
        #: ``host -> [(head word, new value)]``: what releasing the slots
        #: of ``host``'s last ``receive_all`` will publish.
        self._held: Dict[int, List[Tuple[int, int]]] = {}
        self.stats = PhasedCommRecords(self)

    # -- guards ------------------------------------------------------------

    def _check_host(self, host: int) -> None:
        if not 0 <= host < self.num_hosts:
            raise TransportError(f"host {host} out of range [0, {self.num_hosts})")

    def _check_alive(self, host: int) -> None:
        if host in self._dead:
            raise HostCrashedError(f"host {host} has crashed")

    # -- sending -----------------------------------------------------------

    def send(self, src: int, dst: int, payload: bytes) -> None:
        """Frame ``payload`` (seq + CRC-32) into the next ``src -> dst`` slot."""
        self._check_host(src)
        self._check_host(dst)
        self._check_alive(src)
        self._check_alive(dst)
        if src == dst:
            raise TransportError(f"host {src} cannot send to itself")
        if not isinstance(payload, (bytes, bytearray, memoryview)):
            raise TransportError(
                f"payload must be bytes-like, got {type(payload)!r}"
            )
        size = len(payload)
        ring = self.fabric.rings.get((src, dst))
        if ring is None or size > ring.room:
            raise TransportError(
                f"a {size}-byte frame from host {src} to host {dst} exceeds "
                f"the ring's {ring.room if ring else 0}-byte slots (sized "
                "once, from the sync plan's worst case)"
            )
        control = self._control
        tail = control[ring.tail]
        if tail - control[ring.tail + 1] >= ring.slots:
            raise TransportError(
                f"ring {src}->{dst} is full: host {dst} has not released "
                f"any of its {ring.slots} slots"
            )
        seq = src * SEQ_STRIDE + self._seq[src]
        self._seq[src] += 1
        crc = frame_crc(seq, payload)
        at = ring.base + tail % ring.slots * ring.stride
        _SLOT.pack_into(self._slots, at, seq, crc, size, self._send_phase[src])
        self._slots[at + _SLOT.size : at + _SLOT.size + size] = payload
        control[ring.tail] = tail + 1
        self.stats.record(src, dst, size)

    def finish_phase(self, src: int) -> None:
        """Publish that ``src``'s sends for the current phase are complete.

        Every host must finish every phase, with or without traffic — the
        counters are what unblock the receivers.  First releases the
        slots ``src`` last received: by its next flush the substrate has
        consumed them, and peers may run a phase ahead once this returns.
        """
        self._check_host(src)
        self._check_alive(src)
        self._release(src)
        self._send_phase[src] += 1
        self._control[src] = self._send_phase[src]
        for dst in range(self.num_hosts):
            if dst != src and dst not in self._dead:
                self.fabric.bells[dst].release()

    # -- receiving ---------------------------------------------------------

    def _release(self, host: int) -> None:
        """Hand the slots of ``host``'s last delivery back to their producers."""
        for head, upto in self._held.pop(host, ()):
            self._control[head] = upto

    def receive_all(self, host: int) -> List[Tuple[int, memoryview]]:
        """Block until every live peer ended the phase; deliver in order.

        Returns ``(sender, payload)`` pairs sorted ascending by sender,
        FIFO within a sender — the simulated mailbox order.  Each payload
        is a read-only view of its slot, valid until ``host``'s next
        ``receive_all`` or ``finish_phase``.
        """
        self._check_host(host)
        self._check_alive(host)
        phase = self._recv_phase[host]
        self._recv_phase[host] = phase + 1
        self._release(host)
        control, bell = self._control, self.fabric.bells[host]
        deadline = time.monotonic() + self.receive_timeout_s
        for src in range(self.num_hosts):
            if src == host or src in self._dead:
                continue
            while control[src] <= phase:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise TransportError(
                        f"host {host} timed out waiting for peers after "
                        f"{self.receive_timeout_s:.0f}s (a worker likely died)"
                    )
                if bell.acquire(timeout=min(left, LIVENESS_POLL_S)):
                    continue
                if self._coordinator not in (None, os.getppid()):
                    raise TransportError(
                        f"host {host} stopped waiting for peers: its "
                        "coordinator is gone"
                    )
        delivered: List[Tuple[int, memoryview]] = []
        held = self._held[host] = []
        for ring in self.fabric.into[host]:
            first = cursor = self._cursor[ring.tail]
            tail = control[ring.tail]
            while cursor < tail:
                at = ring.base + cursor % ring.slots * ring.stride
                seq, crc, size, sent_in = _SLOT.unpack_from(self._slots, at)
                if sent_in != phase:
                    break  # the sender is one phase ahead
                body = self._slots[at + _SLOT.size : at + _SLOT.size + size]
                expected = frame_crc(seq, body)
                if crc != expected:
                    raise TransportError(
                        f"frame from host {ring.src} failed its pipe CRC: "
                        f"expected {expected:#010x}, got {crc:#010x}"
                    )
                if seq // SEQ_STRIDE != ring.src:
                    raise TransportError(
                        f"frame claims host {ring.src} but carries sequence "
                        f"namespace {seq // SEQ_STRIDE}"
                    )
                delivered.append((ring.src, body.toreadonly()))
                cursor += 1
            if cursor != first:
                self._cursor[ring.tail] = cursor
                held.append((ring.tail + 1, cursor))
        return delivered

    def _undelivered(self, host: int) -> Dict[int, int]:
        """``sender -> frames`` sitting in ``host``'s rings, not yet delivered."""
        waiting = {
            ring.src: self._control[ring.tail] - self._cursor[ring.tail]
            for ring in self.fabric.into[host]
        }
        return {src: count for src, count in waiting.items() if count}

    def pending(self, host: int) -> int:
        """Frames already in ``host``'s rings (non-blocking)."""
        self._check_host(host)
        return sum(self._undelivered(host).values())

    # -- lifecycle ---------------------------------------------------------

    def crash(self, host: int) -> None:
        """Mark ``host`` dead for this worker's view of the cluster."""
        self._check_host(host)
        self._dead.add(host)

    def is_crashed(self, host: int) -> bool:
        """Whether ``host`` was marked dead."""
        return host in self._dead

    @property
    def crashed_hosts(self) -> frozenset:
        """Dead host ids."""
        return frozenset(self._dead)

    def end_round(self) -> None:
        """Assert the round drained: no frame waits for a host served here."""
        leftovers = {
            host: waiting
            for host in range(self.num_hosts)
            if self._recv_phase[host] and (waiting := self._undelivered(host))
        }
        if leftovers:
            raise TransportError(f"undelivered frames at round end: {leftovers}")
