"""Alpha-beta network timing model.

Because a pure-Python in-process simulation cannot reproduce the wall-clock
of an Omni-Path cluster, communication *time* is modeled analytically from
the exact message trace: each message costs ``alpha + bytes / bandwidth``,
and a BSP round's communication time is the critical path — the maximum
over hosts of (time to send its outgoing messages + time to drain its
incoming ones).  Two parameter sets stand in for the paper's transports:
LCI (lower per-message latency; Dang et al. [20] show its benefit for graph
analytics) and MPI.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NetworkParameters:
    """Latency/bandwidth description of one transport on one fabric."""

    name: str
    #: Per-message latency in seconds (the alpha term).
    latency_s: float
    #: Link bandwidth in bytes/second (the beta term's denominator).
    bandwidth_bytes_per_s: float

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency_s}")
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError(
                f"bandwidth must be positive, got {self.bandwidth_bytes_per_s}"
            )


#: LCI on 100 Gbps Omni-Path: low per-message overhead.
LCI_PARAMETERS = NetworkParameters(
    name="lci", latency_s=2.0e-6, bandwidth_bytes_per_s=12.5e9
)

#: MPI on the same fabric: higher per-message overhead (matching the
#: LCI-vs-MPI gap reported by Dang et al.).
MPI_PARAMETERS = NetworkParameters(
    name="mpi", latency_s=6.0e-6, bandwidth_bytes_per_s=12.5e9
)

#: Fabric scaling for the benchmark harness.  The stand-in graphs are
#: roughly 2**13 times smaller than the paper's largest inputs while the
#: simulated clusters are ~16x smaller, so per-host data shrinks by ~2**9.
#: Dividing bandwidth by the same factor restores the paper's
#: computation:communication balance (communication-bound execution at
#: scale) without touching the measured byte counts, which stay exact.
#: Latency is left unchanged: per-message effects (partner counts, empty
#: messages) keep their true relative cost.
FABRIC_SCALE = 512.0


def scaled_fabric(
    parameters: NetworkParameters, scale: float = FABRIC_SCALE
) -> NetworkParameters:
    """Return ``parameters`` with bandwidth divided by ``scale``.

    Used by the benchmark harness so scaled-down inputs exercise the same
    compute/communication regime the paper's clusters did (see DESIGN.md).
    GPU systems use a smaller scale (their per-edge compute is ~4x faster,
    so the same volume already weighs ~4x more relative to compute).
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return NetworkParameters(
        name=f"{parameters.name}-scaled",
        latency_s=parameters.latency_s,
        bandwidth_bytes_per_s=parameters.bandwidth_bytes_per_s / scale,
    )


class CostModel:
    """Converts a message trace into simulated communication seconds."""

    def __init__(self, parameters: NetworkParameters = LCI_PARAMETERS) -> None:
        self.parameters = parameters

    def message_time(self, nbytes: int) -> float:
        """Simulated seconds to move one message of ``nbytes``."""
        if nbytes < 0:
            raise ValueError(f"message size must be >= 0, got {nbytes}")
        p = self.parameters
        return p.latency_s + nbytes / p.bandwidth_bytes_per_s
