"""Extension: wide-payload compression on label propagation.

Feature workloads invert the paper's cost balance: the wire is
bandwidth-bound, so *payload* encoding, not metadata mode, decides
bytes/round.  labelprop's wide field is the one-hot label matrix — a
settled row never ships and a flipped label changes exactly two of ``d``
columns, the shape delta encoding exists for.  Swept over feature width
x compression mode: the lossless wire (``delta``: each message ships as
whole rows or as a delta, whichever is fewer bytes), ``fp16``, and the
rows-only wire every wide message would take as plain rows.  The
rows-only bytes are not a second run: they are the lossless run's own
frames, each DELTA sub-message repriced as the rows it decodes to.
Labels must be bitwise equal across modes (one-hot rows and small vote
counts are exact even in float16) and the published byte counters must
equal the transport's accounting.
"""

from unittest.mock import patch

import numpy as np

from benchmarks.conftest import emit, once
from repro.analysis.tables import format_table
from repro.comm.channel import CommPlane
from repro.core.serialization import read_message
from repro.observability import Observability
from repro.systems import run_app
from repro.workloads import load_workload

#: The rows-only totals at full scale, d = 8 / 32 / 128: what the wire
#: shipped when every wide message went as plain rows.
ROWS_ONLY_BYTES = {8: 1_021_735, 32: 4_490_245, 128: 19_088_828}


def run_pricing_rows(run):
    """``run()``'s result and the bytes it would have shipped with every
    wide message as plain rows: each sub-message it stages is read back,
    and a DELTA one is priced at its rows (the packed masks and the
    shipped cells out, every row's full width in)."""
    extra = 0
    stage_all = CommPlane.stage_all

    def priced(plane, field_index, peers, payloads):
        nonlocal extra
        for payload in payloads:
            _, values, _, width, mask = read_message(payload)
            if mask is not None:
                extra += (mask.size - values.size) * values.itemsize
                extra -= len(mask) * ((width + 7) // 8)
        stage_all(plane, field_index, peers, payloads)

    with patch.object(CommPlane, "stage_all", priced):
        result = run()
    return result, result.communication_volume + extra


def compression_rows(scale_delta=0, hosts=8):
    edges = load_workload("rmat22s", scale_delta)
    rows = []
    for dim in (8, 32, 128):
        totals, rounds, labels = {}, {}, {}
        for compression in ("delta", "fp16"):
            obs = Observability()
            result, rows_only = run_pricing_rows(
                lambda: run_app(
                    "d-galois", "labelprop", edges, num_hosts=hosts,
                    policy="cvc", compression=compression, feature_dim=dim,
                    feature_rounds=4, observability=obs,
                )
            )
            metered = obs.metrics.counter_total("bytes_sent_total")
            counted = result.executor.transport.stats.total_bytes
            assert metered == counted, (
                f"d={dim} {compression}: metrics bytes {metered} != "
                f"CommStats bytes {counted}"
            )
            labels[compression] = result.executor.gather_result("label")
            totals[compression] = result.communication_volume
            rounds[compression] = result.num_rounds
            if compression == "delta":
                totals["rows-only"], rounds["rows-only"] = rows_only, result.num_rounds
        assert np.array_equal(labels["fp16"], labels["delta"]), (
            f"d={dim}: labels under fp16 diverged from the lossless wire"
        )
        for compression in ("rows-only", "delta", "fp16"):
            rows.append(
                {
                    "d": dim,
                    "compression": compression,
                    "rounds": rounds[compression],
                    "total_bytes": totals[compression],
                    "bytes_per_round": round(
                        totals[compression] / max(rounds[compression], 1), 1
                    ),
                    "cut_vs_rows": round(totals["rows-only"] / totals[compression], 2),
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
    total = {(row["d"], row["compression"]): row["total_bytes"] for row in rows}
    assert {d: total[d, "rows-only"] for d in ROWS_ONLY_BYTES} == ROWS_ONLY_BYTES
    cut = {(row["d"], row["compression"]): row["cut_vs_rows"] for row in rows}
    # The acceptance bar: the lossless wire halves bytes/round at d=128.
    assert cut[128, "delta"] >= 2.0
    # Delta's per-row mask overhead amortizes as d grows; fp16 is a flat
    # 4x on the payload whatever the width, so it wins at small d.
    assert cut[8, "delta"] < cut[32, "delta"] < cut[128, "delta"]
    assert cut[8, "fp16"] > cut[8, "delta"]
