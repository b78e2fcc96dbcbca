"""Static analysis of program specifications (§3.1-§3.3).

Given a :class:`~repro.compiler.spec.ProgramSpec`, the analysis derives
what the paper's compiler derives from application source:

* §3.2's table for source -> destination data flow (a transposed push
  reverses it; ``repro analyze --dataflow`` gives the per-wire truth);
* which synchronization patterns (reduce and/or broadcast) each
  partitioning strategy needs for this operator.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.compiler.spec import ProgramSpec, derive_endpoints
from repro.partition.strategy import PartitionStrategy

#: §3.2's per-strategy pattern table for source->destination data flow.
_PATTERNS: Dict[PartitionStrategy, Tuple[bool, bool]] = {
    PartitionStrategy.UVC: (True, True),  # gather-apply-scatter
    PartitionStrategy.CVC: (True, True),  # both, on restricted subsets
    PartitionStrategy.IEC: (False, True),  # halo exchange
    PartitionStrategy.OEC: (True, False),  # reduce + local reset
}


def required_patterns(
    strategy: PartitionStrategy,
) -> Tuple[bool, bool]:
    """(needs_reduce, needs_broadcast) for src->dst flow under ``strategy``."""
    return _PATTERNS[strategy]


def _strategy_lines():
    """The per-strategy plan table: which patterns each strategy needs.

    Every spec-expressible program is a single-value-push reduction,
    which §3.1's legality matrix allows under every strategy.
    """
    lines = []
    for strategy in PartitionStrategy:
        needs_reduce, needs_broadcast = required_patterns(strategy)
        patterns = []
        if needs_reduce:
            patterns.append("reduce")
        if needs_broadcast:
            patterns.append("broadcast")
        lines.append(f"  {strategy.value:>4}: {' + '.join(patterns)}")
    return lines


def describe_program(spec: ProgramSpec) -> str:
    """Human-readable summary of a program spec.

    Shows the phase pipeline, the *derived* sync endpoints per wire (the
    part the paper's compiler extracts from application source), and the
    per-strategy synchronization plan.
    """
    lines = [
        f"program {spec.name}: {spec.operator_class.value}-style, "
        f"{len(spec.phases)} phase(s), {len(spec.fields)} field(s)"
    ]
    for phase in spec.phases:
        detail = []
        if phase.guard:
            detail.append(f"guard: {phase.guard}")
        if phase.select:
            detail.append(f"select: {phase.select}")
        if phase.edge_filter:
            detail.append(f"filter: {phase.edge_filter}")
        if phase.uses_weights:
            detail.append("weighted")
        if phase.orientation != "forward":
            detail.append(phase.orientation)
        suffix = f"  ({'; '.join(detail)})" if detail else ""
        lines.append(
            f"  phase {phase.name} [{phase.kind}] -> "
            f"{', '.join(phase.targets)}{suffix}"
        )
    endpoints = derive_endpoints(spec)
    for decl in spec.sync:
        writes, reads = endpoints[decl.wire_name]
        reduce = spec.field_decl(decl.field).reduce
        pair = (
            f", broadcast {decl.broadcast!r}"
            if decl.broadcast is not None
            else ""
        )
        lines.append(
            f"  sync {decl.wire_name}: {reduce}-reduction of "
            f"{decl.field!r}{pair} — derived writes="
            f"{sorted(writes)} reads={sorted(reads)}"
        )
    lines.extend(_strategy_lines())
    return "\n".join(lines)
