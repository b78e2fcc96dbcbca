"""In-process message transport between simulated hosts.

Carries real ``bytes`` payloads through per-host mailboxes.  The executor
runs hosts in BSP phases, so delivery is immediate: every host finishes its
sends for a phase before any host drains its mailbox.  All traffic is
recorded in a :class:`~repro.network.stats.CommStats` for exact volume
accounting.

The transport is payload-agnostic: the communication plane hands it
one framed multi-field buffer per peer per phase (see
:mod:`repro.comm`), and the per-message/byte accounting here is the
ground truth every metrics counter must reconcile against.

Hosts can be *crashed* (:meth:`InProcessTransport.crash`) by the
resilience subsystem's fault injector: a crashed host's queued mail is
discarded and any further operation touching it raises
:class:`~repro.errors.HostCrashedError` naming the dead host — the
simulated analogue of a connection reset, and the signal the executor's
recovery protocols react to.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.errors import HostCrashedError, TransportError
from repro.network.stats import CommStats


class InProcessTransport:
    """Mailbox-based transport connecting ``num_hosts`` simulated hosts."""

    def __init__(self, num_hosts: int, stats: Optional[CommStats] = None) -> None:
        if num_hosts <= 0:
            raise TransportError(f"num_hosts must be >= 1, got {num_hosts}")
        self.num_hosts = num_hosts
        self.stats = stats if stats is not None else CommStats(num_hosts)
        self._mailboxes: List[List[Tuple[int, bytes]]] = [
            [] for _ in range(num_hosts)
        ]
        self._dead: Set[int] = set()

    def send(self, src: int, dst: int, payload: bytes) -> None:
        """Send ``payload`` from host ``src`` to host ``dst``.

        Self-sends are rejected: Gluon never synchronizes a proxy with
        itself, so a self-send indicates a substrate bug.
        """
        if not (0 <= src < self.num_hosts and 0 <= dst < self.num_hosts):
            self._check_host(src)
            self._check_host(dst)
        if self._dead:
            self._check_alive(src)
            self._check_alive(dst)
        if src == dst:
            raise TransportError(f"host {src} attempted to send to itself")
        if not isinstance(payload, bytes):
            if not isinstance(payload, (bytearray, memoryview)):
                raise TransportError(
                    f"payload must be bytes-like, got {type(payload)!r}"
                )
            payload = bytes(payload)
        self._mailboxes[dst].append((src, payload))
        self.stats.record(src, dst, len(payload))

    def receive_all(self, host: int) -> List[Tuple[int, bytes]]:
        """Drain and return all (sender, payload) pairs queued for ``host``."""
        self._check_host(host)
        self._check_alive(host)
        inbox = self._mailboxes[host]
        self._mailboxes[host] = []
        return inbox

    def pending(self, host: int) -> int:
        """Number of undelivered messages queued for ``host``.

        A read-only probe for monitoring code: it never drains the
        mailbox and — unlike :meth:`send` / :meth:`receive_all` — never
        raises for a crashed host (a dead host simply has 0 pending
        messages, since crashing discards its queued mail).
        """
        self._check_host(host)
        return len(self._mailboxes[host])

    def crash(self, host: int) -> None:
        """Mark ``host`` dead; its queued mail becomes dead letters.

        Subsequent sends to/from the host and receives on it raise
        :class:`~repro.errors.HostCrashedError` carrying the dead host's
        id.  Crashing an already-dead host is a no-op.
        """
        self._check_host(host)
        self._dead.add(host)
        self._mailboxes[host] = []

    def is_crashed(self, host: int) -> bool:
        """Whether ``host`` has been crashed.

        Read-only and never raises for valid host ids — safe to poll
        from monitoring code.
        """
        self._check_host(host)
        return host in self._dead

    @property
    def crashed_hosts(self) -> frozenset:
        """The set of crashed host ids."""
        return frozenset(self._dead)

    def end_round(self) -> None:
        """Mark a BSP round boundary in the statistics.

        All mailboxes must be drained first — a queued message at a round
        boundary means some host never consumed synchronization data.
        """
        undelivered = {
            h: sorted({src for src, _ in self._mailboxes[h]})
            for h in range(self.num_hosts)
            if self._mailboxes[h]
        }
        if undelivered:
            detail = "; ".join(
                f"host {dst} holds mail from senders {senders}"
                for dst, senders in undelivered.items()
            )
            raise TransportError(
                f"round ended with undelivered messages: {detail}"
            )
        self.stats.end_round()

    def take_round_fault_bytes(self) -> int:
        """Extra bytes faults cost this round: none on a reliable fabric."""
        return 0

    def _check_host(self, host: int) -> None:
        if not 0 <= host < self.num_hosts:
            raise TransportError(
                f"host {host} out of range [0, {self.num_hosts})"
            )

    def _check_alive(self, host: int) -> None:
        if host in self._dead:
            raise HostCrashedError(host)
