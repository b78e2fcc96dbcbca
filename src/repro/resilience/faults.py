"""Fault models: what can go wrong in the simulated cluster, and when.

A :class:`FaultPlan` is a declarative, seeded description of the faults a
run must survive: fail-stop host crashes pinned to a BSP round, plus
transient per-message faults (drop, duplication, payload corruption) drawn
at the given rates.  A :class:`FaultInjector` is the plan's runtime: it
owns the deterministic RNG that decides each message's fate, hands out the
transport-wide sequence numbers of the integrity frames, and makes each
crash fire exactly once (so checkpoint-restart recovery can replay the
crash round without re-killing the reborn host).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.errors import FaultPlanError
from repro.utils.rng import make_rng

#: Message fates a transient fault can choose.
DELIVER, DROP, CORRUPT, DUPLICATE = "deliver", "drop", "corrupt", "duplicate"


@dataclass(frozen=True)
class CrashFault:
    """A fail-stop crash of one host at the start of one BSP round."""

    host: int
    round_index: int

    def __post_init__(self) -> None:
        if self.host < 0:
            raise FaultPlanError(f"crash host must be >= 0, got {self.host}")
        if self.round_index < 1:
            raise FaultPlanError(
                f"crash round must be >= 1, got {self.round_index}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, declarative fault schedule for one run.

    Attributes:
        crashes: Fail-stop host crashes, each firing at most once.
        drop_rate: Probability a message's first transmission is lost.
        corrupt_rate: Probability a message arrives with a flipped byte
            (detected by the frame checksum).
        duplicate_rate: Probability a message is delivered twice.
        seed: Seed of the injector RNG; same plan + same seed = same faults.
    """

    crashes: Tuple[CrashFault, ...] = ()
    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    duplicate_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "crashes", tuple(self.crashes))
        for name in ("drop_rate", "corrupt_rate", "duplicate_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise FaultPlanError(f"{name} must be in [0, 1], got {rate}")
        total = self.drop_rate + self.corrupt_rate + self.duplicate_rate
        if total > 1.0:
            raise FaultPlanError(
                f"transient fault rates sum to {total}, must be <= 1"
            )
        if self.seed < 0:
            raise FaultPlanError(f"seed must be non-negative, got {self.seed}")
        seen = set()
        for crash in self.crashes:
            if crash.host in seen:
                raise FaultPlanError(
                    f"host {crash.host} is scheduled to crash twice"
                )
            seen.add(crash.host)

    @property
    def has_transient(self) -> bool:
        """Whether any per-message fault rate is non-zero."""
        return (
            self.drop_rate > 0
            or self.corrupt_rate > 0
            or self.duplicate_rate > 0
        )

    @property
    def is_empty(self) -> bool:
        """Whether the plan injects no faults at all."""
        return not self.crashes and not self.has_transient

    def validate_hosts(self, num_hosts: int) -> None:
        """Check every planned crash names an existing host."""
        for crash in self.crashes:
            if crash.host >= num_hosts:
                raise FaultPlanError(
                    f"crash targets host {crash.host}, but the cluster has "
                    f"{num_hosts} hosts"
                )

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse a CLI fault spec into a plan.

        Grammar (comma-separated clauses)::

            crash:HOST@ROUND    fail-stop crash of HOST at round ROUND
            drop:RATE           transient message-loss probability
            corrupt:RATE        transient payload-corruption probability
            dup:RATE            transient duplication probability

        Example: ``crash:1@3,drop:0.05``.
        """
        crashes: List[CrashFault] = []
        rates: Dict[str, float] = {}
        for clause in spec.split(","):
            clause = clause.strip()
            if not clause:
                continue
            kind, _, value = clause.partition(":")
            kind = kind.strip().lower()
            if not value:
                raise FaultPlanError(
                    f"fault clause {clause!r} needs a value (kind:value)"
                )
            if kind == "crash":
                host_text, sep, round_text = value.partition("@")
                if not sep:
                    raise FaultPlanError(
                        f"crash clause {clause!r} must look like crash:HOST@ROUND"
                    )
                try:
                    crashes.append(
                        CrashFault(int(host_text), int(round_text))
                    )
                except ValueError:
                    raise FaultPlanError(
                        f"crash clause {clause!r}: HOST and ROUND must be ints"
                    ) from None
            elif kind in ("drop", "corrupt", "dup", "duplicate"):
                key = "duplicate" if kind == "dup" else kind
                try:
                    rates[f"{key}_rate"] = float(value)
                except ValueError:
                    raise FaultPlanError(
                        f"{kind} clause {clause!r}: rate must be a float"
                    ) from None
            else:
                raise FaultPlanError(
                    f"unknown fault kind {kind!r} in {clause!r} "
                    "(known: crash, drop, corrupt, dup)"
                )
        return cls(crashes=tuple(crashes), seed=seed, **rates)


class FaultInjector:
    """Runtime of a :class:`FaultPlan`: deterministic fault decisions.

    One injector lives for a whole execution, *across* transport rebirths
    (recovery replaces the transport, not the injector), so sequence
    numbers stay globally unique and fired crashes stay fired.  Its RNG
    is never rewound: replayed rounds draw fresh, equally masked fates.

    ``seq_base`` namespaces the sequence counter: the multiprocess
    runtime gives each worker's injector a disjoint base so frames from
    different workers can never collide at a receiver's duplicate
    filter.
    """

    def __init__(self, plan: FaultPlan, seq_base: int = 0) -> None:
        self.plan = plan
        self.rng = make_rng(plan.seed)
        self._seq = seq_base
        self._fired: Set[CrashFault] = set()

    # -- sequence numbers -----------------------------------------------------

    def next_seq(self) -> int:
        """A transport-unique, monotonically increasing sequence number."""
        self._seq += 1
        return self._seq

    # -- crashes --------------------------------------------------------------

    def take_crashes(self, round_index: int) -> List[int]:
        """Hosts whose planned crash fires at ``round_index`` (one-shot)."""
        hosts = []
        for crash in self.plan.crashes:
            if crash.round_index == round_index and crash not in self._fired:
                self._fired.add(crash)
                hosts.append(crash.host)
        return sorted(hosts)

    @property
    def pending_crashes(self) -> List[CrashFault]:
        """Planned crashes that have not fired yet."""
        return [c for c in self.plan.crashes if c not in self._fired]

    # -- transient faults -----------------------------------------------------

    def decide_fate(self) -> str:
        """Draw one message's fate from the plan's transient rates."""
        plan = self.plan
        if not plan.has_transient:
            return DELIVER
        u = float(self.rng.random())
        if u < plan.drop_rate:
            return DROP
        u -= plan.drop_rate
        if u < plan.corrupt_rate:
            return CORRUPT
        u -= plan.corrupt_rate
        if u < plan.duplicate_rate:
            return DUPLICATE
        return DELIVER

    def corrupt(self, frame: bytes) -> bytes:
        """Flip one byte of ``frame`` at an RNG-chosen position.

        A single flipped byte is always caught by the frame's CRC-32,
        whether it lands in the sequence number, the checksum itself, or
        the payload.
        """
        data = bytearray(frame)
        if not data:
            return bytes(data)
        position = int(self.rng.integers(len(data)))
        data[position] ^= 0xFF
        return bytes(data)
