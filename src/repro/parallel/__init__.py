"""The shared-memory multiprocess host runtime (``--runtime process``).

Real parallel execution of the simulated cluster: forked worker
processes inherit the partitioned graph and a shared state arena, exchange
the comm plane's framed buffers through shared-memory rings
(:mod:`repro.parallel.rings`), and a
coordinator (:mod:`repro.parallel.coordinator`) merges their raw reports
so every result — values, byte counts, alpha-beta "cluster time" — stays
bitwise identical to the default simulated runtime
(:class:`~repro.parallel.runner.InProcessRunner`).
"""

from repro.parallel.rings import PhasedCommRecords, RingFabric, RingTransport
from repro.parallel.runner import InProcessRunner, RoundData

__all__ = [
    "InProcessRunner",
    "PhasedCommRecords",
    "RingFabric",
    "RingTransport",
    "RoundData",
]
