"""Exporters: Chrome trace-event JSON, metrics dumps, per-round tables.

The Chrome exporter emits the `trace-event format`_ consumed by
``chrome://tracing`` and `Perfetto <https://ui.perfetto.dev>`_: one
"process" per simulated host (plus a *driver* process for partitioning,
checkpoints, and recovery), complete ``"X"`` events whose microsecond
timestamps come from the run's alpha-beta cost-model clock, and metadata
events naming every process.  Opening an exported file shows the BSP
waterfall the paper describes: aligned round barriers, per-host compute
skew (load imbalance), and the reduce/broadcast phases of every field.

.. _trace-event format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.observability.tracer import DRIVER, Tracer


def _pid(host: int) -> int:
    # Driver is pid 0; simulated hosts are pid host+1.
    return 0 if host == DRIVER else host + 1


def _process_name(host: int) -> str:
    return "driver" if host == DRIVER else f"host {host}"


def chrome_trace(tracer: Tracer, run_info: Optional[Dict] = None) -> Dict:
    """Render the tracer's spans as a Chrome trace-event document."""
    hosts = sorted({span.host for span in tracer.spans})
    events: List[Dict] = []
    for host in hosts:
        pid = _pid(host)
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": _process_name(host)},
            }
        )
        events.append(
            {
                "ph": "M",
                "name": "process_sort_index",
                "pid": pid,
                "tid": 0,
                "args": {"sort_index": pid},
            }
        )
    for span in tracer.spans:
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.cat or "span",
                "pid": _pid(span.host),
                "tid": 0,
                "ts": round(span.begin_s * 1e6, 3),
                "dur": round(span.duration_s * 1e6, 3),
                # A phase span's ``staged`` list feeds the derived
                # aggregation ablation only; ``messages`` is its count.
                "args": {k: v for k, v in span.tags.items() if k != "staged"},
            }
        )
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulated (alpha-beta cost model)"},
    }
    if run_info:
        document["otherData"].update(run_info)
    return document


def write_chrome_trace(
    tracer: Tracer, path, run_info: Optional[Dict] = None
) -> Dict:
    """Write :func:`chrome_trace` to ``path``; returns the document."""
    from pathlib import Path

    document = chrome_trace(tracer, run_info)
    Path(path).write_text(json.dumps(document, indent=1))
    return document


def write_metrics(registry, path) -> None:
    """Dump the registry to ``path`` (CSV when it ends in ``.csv``)."""
    if str(path).endswith(".csv"):
        registry.to_csv(path)
    else:
        registry.to_json(path)


def round_table(result, limit: Optional[int] = None) -> str:
    """Human-readable per-round table of a finished run."""
    from repro.analysis.tables import format_table

    rows = [
        {
            "round": row["round"],
            "comp_max_ms": round(row["comp_max_s"] * 1e3, 4),
            "comm_ms": round(row["comm_s"] * 1e3, 4),
            "KB": round(row["comm_bytes"] / 1e3, 2),
            "msgs": row["messages"],
            "active": row["active_nodes"],
        }
        for row in result.round_rows()
    ]
    shown = rows if limit is None else rows[:limit]
    title = f"per-round breakdown ({result.app} on {result.num_hosts} hosts)"
    table = format_table(shown, title=title)
    if limit is not None and len(rows) > limit:
        table += f"... ({len(rows) - limit} more rounds)\n"
    return table
