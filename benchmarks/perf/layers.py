"""Outside-in layer profile: wrap public calls, record spans, report self time.

The harness never edits ``src/``.  It rebinds the public functions named
in :data:`WRAP_TABLE` (and every ``from``-imported alias of them it finds
in loaded ``repro.*`` modules) to thin recording wrappers, runs a job, and
restores every binding.  A span is ``(name, start, end, parent, amount)``;
a layer's *self time* is its spans' duration minus the part covered by
child spans, so the self times of all layers sum to the traced wall.

The table names only non-underscore public attributes, so a refactor can
only make a target disappear — which yields a warning and ``None`` for
that layer's metrics, never a crash (later PRs may not edit this
directory).
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[str, float, float, int, int]

#: The spans that are one BSP round (simulated / process runtime).
ROUND_SPANS = ("runtime.round", "parallel.round")


def _payload_len(args, result) -> int:
    return len(result.payload)


def _decoded_len(args, result) -> int:
    return len(args[0])


def _frame_overhead(args, result) -> int:
    return len(result) - sum(len(sub) for sub in args[0] if sub is not None)


def _sent_len(args, result) -> int:
    return len(args[3])  # (self, src, dst, payload)


def _edges_processed(args, result) -> int:
    return int(result.work.edges_processed)


@dataclass(frozen=True)
class Target:
    """One public call to wrap.

    ``attr`` is ``"function"`` or ``"Class.method"`` inside ``module``.
    ``subclasses`` also wraps every loaded subclass that overrides the
    method (engines, partitioners).  ``in_worker`` marks round-loop code
    that the process runtime executes inside forked workers: it is left
    unwrapped there so workers carry no span buffers.  ``amount`` turns
    a call's arguments/result into the bytes or edges the span moved.
    ``mark`` targets are the coarse piece boundaries the untraced
    end-to-end repeats carry (see ``workloads._quiet_timings``).
    """

    span: str
    module: str
    attr: str
    subclasses: bool = False
    in_worker: bool = False
    amount: Optional[Callable] = None
    mark: bool = False


WRAP_TABLE: Tuple[Target, ...] = (
    Target("graph.prepare", "repro.systems", "prepare_input", mark=True),
    Target(
        "partition.assign", "repro.partition.base", "Partitioner.assign",
        subclasses=True, mark=True,
    ),
    Target("partition.local_build", "repro.partition.base", "build_local_partition", mark=True),
    Target("partition.build", "repro.partition.build", "build_partition", mark=True),
    Target("memoization.setup", "repro.core.substrate", "setup_substrates", mark=True),
    Target("memoization.exchange", "repro.core.memoization", "exchange_address_books", mark=True),
    Target(
        "engine.compute", "repro.engines.base", "Engine.compute_round",
        subclasses=True, in_worker=True, amount=_edges_processed, mark=True,
    ),
    Target(
        "features.kernel", "repro.features.kernels", "aggregate_neighbor_rows",
        in_worker=True,
    ),
    Target(
        "substrate.stage_reduce", "repro.core.substrate", "GluonSubstrate.stage_reduce",
        in_worker=True,
    ),
    Target(
        "substrate.stage_broadcast", "repro.core.substrate", "GluonSubstrate.stage_broadcast",
        in_worker=True,
    ),
    Target(
        "substrate.flush", "repro.core.substrate", "GluonSubstrate.flush_phase",
        in_worker=True,
    ),
    Target(
        "substrate.receive_reduce", "repro.core.substrate", "GluonSubstrate.receive_reduce_all",
        in_worker=True,
    ),
    Target(
        "substrate.receive_broadcast", "repro.core.substrate",
        "GluonSubstrate.receive_broadcast_all", in_worker=True,
    ),
    Target(
        "codec.encode", "repro.comm.codec", "encode_memoized_field",
        in_worker=True, amount=_payload_len,
    ),
    Target(
        "codec.decode", "repro.comm.codec", "decode_field_payload",
        in_worker=True, amount=_decoded_len,
    ),
    Target("serialization.encode", "repro.core.serialization", "encode_message", in_worker=True),
    Target("serialization.decode", "repro.core.serialization", "decode_message", in_worker=True),
    Target(
        "frame.encode", "repro.comm.frame", "encode_frame",
        in_worker=True, amount=_frame_overhead,
    ),
    Target("frame.decode", "repro.comm.frame", "decode_frame", in_worker=True),
    Target(
        "transport.send", "repro.network.transport", "InProcessTransport.send",
        in_worker=True, amount=_sent_len,
    ),
    Target(
        "transport.receive", "repro.network.transport", "InProcessTransport.receive_all",
        in_worker=True,
    ),
    Target(
        "transport.end_round", "repro.network.transport", "InProcessTransport.end_round",
        in_worker=True,
    ),
    Target("runtime.run", "repro.runtime.executor", "DistributedExecutor.run", mark=True),
    Target(
        "runtime.round", "repro.parallel.runner", "InProcessRunner.run_round",
        in_worker=True, mark=True,
    ),
    Target("parallel.start", "repro.parallel.coordinator", "ProcessRunner.start", mark=True),
    Target("parallel.round", "repro.parallel.coordinator", "ProcessRunner.run_round", mark=True),
    Target("parallel.finish", "repro.parallel.coordinator", "ProcessRunner.finish", mark=True),
)


def _all_subclasses(cls) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found


def resolve(target: Target) -> List[Tuple[object, str, Callable]]:
    """The ``(owner, attribute, function)`` bindings a target covers.

    Empty when the module, class or attribute no longer exists.
    """
    try:
        module = importlib.import_module(target.module)
    except ImportError:
        return []
    head, _, method = target.attr.partition(".")
    owner = getattr(module, head, None)
    if owner is None:
        return []
    if not method:
        if not callable(owner):
            return []
        # The defining module plus every ``from x import f`` alias.
        return [
            (mod, name, owner)
            for mod_name, mod in list(sys.modules.items())
            if mod is not None and (mod_name == "repro" or mod_name.startswith("repro."))
            for name, value in list(vars(mod).items())
            if value is owner
        ]
    if not isinstance(owner, type):
        return []
    classes = [owner] + (_all_subclasses(owner) if target.subclasses else [])
    return [
        (cls, method, vars(cls)[method])
        for cls in classes
        if callable(vars(cls).get(method))
    ]


class LayerTracer:
    """Installs the wrap table, collects spans, restores every binding."""

    def __init__(self, process_runtime: bool = False, marks_only: bool = False) -> None:
        self.spans: List[Optional[Span]] = []
        self.unresolved: List[str] = []
        self.amount_errors: set = set()
        self._stack: List[int] = [-1]
        self._restore: List[Tuple[object, str, Callable]] = []
        self._skip_worker_code = process_runtime
        self._marks_only = marks_only

    def __enter__(self) -> "LayerTracer":
        for target in WRAP_TABLE:
            if target.in_worker and self._skip_worker_code:
                continue
            if self._marks_only and not target.mark:
                continue
            bindings = resolve(target)
            if not bindings:
                self.unresolved.append(target.span)
                continue
            wrapped: Dict[int, Callable] = {}
            for owner, name, func in bindings:
                if id(func) not in wrapped:
                    wrapped[id(func)] = self._wrap(target.span, func, target.amount)
                self._restore.append((owner, name, func))
                setattr(owner, name, wrapped[id(func)])
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, func in reversed(self._restore):
            setattr(owner, name, func)
        self._restore.clear()

    def _wrap(self, span: str, func: Callable, amount_of: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserve the slot: parents precede children
            parent = stack[-1]
            stack.append(index)
            amount = 0
            start = clock()
            try:
                result = func(*args, **kwargs)
                if amount_of is not None:
                    try:
                        amount = amount_of(args, result)
                    except (AttributeError, IndexError, TypeError):
                        # A refactored signature loses the count, not the run.
                        self.amount_errors.add(span)
                return result
            finally:
                spans[index] = (span, start, clock(), parent, amount)
                stack.pop()

        return traced

    def take_spans(self) -> List[Span]:
        """Hand over the recorded spans and start a fresh buffer."""
        taken = [span for span in self.spans if span is not None]
        del self.spans[:]
        return taken


@dataclass
class LayerTotals:
    """Per-span-name aggregates of one traced job."""

    self_s: float = 0.0
    inclusive_s: float = 0.0
    calls: int = 0
    amount: int = 0


def aggregate(spans: List[Span]) -> Dict[str, LayerTotals]:
    """Self time, inclusive time, calls and moved amount per span name."""
    self_times = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            self_times[parent] -= end - start
    totals: Dict[str, LayerTotals] = {}
    for (name, start, end, _, amount), self_s in zip(spans, self_times):
        entry = totals.setdefault(name, LayerTotals())
        entry.self_s += self_s
        entry.inclusive_s += end - start
        entry.calls += 1
        entry.amount += amount
    return totals


def split_run_residue(spans: List[Span]) -> Tuple[float, float]:
    """Split ``runtime.run`` self time into (set-up, round-loop) residue.

    Everything ``run()`` does itself before the first round starts is
    state/field construction; everything after is round close, record
    keeping and finalization.
    """
    run_index = next((i for i, s in enumerate(spans) if s[0] == "runtime.run"), None)
    if run_index is None:
        return 0.0, 0.0
    _, run_start, run_end, _, _ = spans[run_index]
    children = [s for s in spans if s[3] == run_index]
    rounds = [s for s in children if s[0] in ROUND_SPANS]
    loop_start = rounds[0][1] if rounds else run_end
    setup = loop_start - run_start
    loop = run_end - loop_start
    for _, start, end, _, _ in children:
        if start < loop_start:
            setup -= end - start
        else:
            loop -= end - start
    return setup, loop


def round_percentiles(spans: List[Span]) -> Tuple[Optional[float], Optional[float]]:
    """(p50 ms, p99 ms) of the round spans; p99 needs >= 10 rounds beyond it."""
    rounds = sorted((end - start) * 1e3 for name, start, end, _, _ in spans if name in ROUND_SPANS)
    if not rounds:
        return None, None
    p99 = None
    if len(rounds) >= 1000:
        p99 = rounds[len(rounds) - 1 - len(rounds) // 100]
    return statistics.median(rounds), p99
