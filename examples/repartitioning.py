#!/usr/bin/env python
"""Mid-run repartitioning (§4.1's footnote).

Gluon's memoization assumes the partition never changes — and when it
does, "memoization can be done soon after partitioning to amortize the
communication costs until the next re-partitioning."  This example starts
pagerank under one policy (OEC), pauses after a few rounds, re-partitions
to CVC — migrating all state and re-running the memoization exchange —
and resumes to convergence.

The final ranks match the sequential oracle exactly, demonstrating that
state migration plus re-memoization preserves correctness while the
communication profile (replication factor, per-round bytes) switches to
the new policy's.

Run:  python examples/repartitioning.py
"""

from repro.apps import make_app
from repro.engines import make_engine
from repro.graph.generators import web_like
from repro.partition import make_partitioner
from repro.runtime.executor import DistributedExecutor
from repro.systems import prepare_input
from repro.verify import verify_run

HOSTS = 8
SWITCH_AFTER = 5


def main() -> None:
    edges = web_like(scale=12, seed=3)
    prep = prepare_input("pr", edges)
    print(f"input: {edges.num_nodes} nodes, {edges.num_edges} edges "
          f"(in-skewed web graph); pagerank on {HOSTS} hosts\n")

    partitioned = make_partitioner("oec").partition(prep.edges, HOSTS)
    executor = DistributedExecutor(
        partitioned, make_engine("galois"), make_app("pr"), prep.ctx
    )
    partial = executor.run(max_rounds=SWITCH_AFTER)
    before = partial.rounds[-1]
    print(f"round {SWITCH_AFTER} on OEC : "
          f"{before.comm_bytes/1e3:8.1f} KB shipped, "
          f"replication {executor.partitioned.replication_factor():.2f}")

    executor.repartition(make_partitioner("cvc").partition(prep.edges, HOSTS), partial)
    result = executor.run(resume=partial)
    after = result.rounds[SWITCH_AFTER]
    print(f"round {SWITCH_AFTER + 1} on CVC : "
          f"{after.comm_bytes/1e3:8.1f} KB shipped, "
          f"replication {executor.partitioned.replication_factor():.2f}")
    print(f"\nconverged in {result.num_rounds} rounds total "
          f"(construction bytes include both memoization exchanges: "
          f"{result.construction_bytes/1e3:.1f} KB)")

    assert verify_run(result, edges).matched
    print("final ranks verified against the sequential oracle.")


if __name__ == "__main__":
    main()
