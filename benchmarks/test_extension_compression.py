"""Extension: wide-payload compression on label propagation.

Feature workloads invert the paper's cost balance: the wire is
bandwidth-bound, so *payload* encoding, not metadata mode, decides
bytes/round.  labelprop's wide field is the one-hot label matrix — a
settled row never ships and a flipped label changes exactly two of ``d``
columns, the shape delta encoding exists for.  Swept over feature width
x compression mode; labels must be bitwise equal across modes (one-hot
rows and small vote counts are exact even in float16) and the published
byte counters must equal the transport's accounting.
"""

import numpy as np

from benchmarks.conftest import emit, once
from repro.analysis.tables import format_table
from repro.observability import Observability
from repro.systems import run_app
from repro.workloads import load_workload


def compression_rows(scale_delta=0, hosts=8):
    edges = load_workload("rmat22s", scale_delta)
    rows = []
    for dim in (8, 32, 128):
        dense_labels = dense_bytes_per_round = None
        for compression in ("none", "delta", "fp16"):
            obs = Observability()
            result = run_app(
                "d-galois", "labelprop", edges, num_hosts=hosts,
                policy="cvc", compression=compression, feature_dim=dim,
                feature_rounds=4, observability=obs,
            )
            metered = obs.metrics.counter_total("bytes_sent_total")
            counted = result.executor.transport.stats.total_bytes
            assert metered == counted, (
                f"d={dim} {compression}: metrics bytes {metered} != "
                f"CommStats bytes {counted}"
            )
            labels = result.executor.gather_result("label")
            bytes_per_round = result.communication_volume / max(
                result.num_rounds, 1
            )
            if compression == "none":
                dense_labels, dense_bytes_per_round = labels, bytes_per_round
            assert np.array_equal(labels, dense_labels), (
                f"d={dim}: labels under {compression} diverged from dense"
            )
            rows.append(
                {
                    "d": dim,
                    "compression": compression,
                    "rounds": result.num_rounds,
                    "total_bytes": result.communication_volume,
                    "bytes_per_round": round(bytes_per_round, 1),
                    "cut_vs_dense": round(
                        dense_bytes_per_round / bytes_per_round, 2
                    ),
                    "bitwise_identical": True,
                }
            )
    return rows


def test_delta_cuts_wide_rows(benchmark):
    rows = once(benchmark, compression_rows)
    emit(
        "extension_compression",
        format_table(
            rows,
            "Compression sweep: labelprop, cvc, 8 hosts, 4 rounds (rmat22s)",
        ),
    )
    cut = {(row["d"], row["compression"]): row["cut_vs_dense"] for row in rows}
    # The acceptance bar: delta halves bytes/round at d=128.
    assert cut[128, "delta"] >= 2.0
    # Delta's per-row mask overhead amortizes as d grows; fp16 is a flat
    # 4x on the payload whatever the width, so it wins at small d.
    assert cut[8, "delta"] < cut[32, "delta"] < cut[128, "delta"]
    assert cut[8, "fp16"] > cut[8, "delta"]
