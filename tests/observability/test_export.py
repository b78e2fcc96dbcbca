"""Chrome trace export: schema validity, process layout, summaries."""

import json

import pytest

from repro import generators, run_app
from repro.observability import (
    Observability,
    chrome_trace,
    round_table,
    write_chrome_trace,
    write_metrics,
)
from repro.observability.summary import (
    TraceFileError,
    host_rows,
    load_trace,
    phase_byte_rows,
    summarize_trace,
    top_span_rows,
)

NUM_HOSTS = 4


@pytest.fixture(scope="module")
def traced_run():
    obs = Observability()
    edges = generators.rmat(scale=8, edge_factor=8, seed=3)
    result = run_app(
        "d-galois", "bfs", edges, num_hosts=NUM_HOSTS, policy="cvc",
        observability=obs,
    )
    return result, obs


@pytest.fixture(scope="module")
def trace_doc(traced_run):
    _, obs = traced_run
    return chrome_trace(obs.tracer, run_info={"app": "bfs"})


class TestChromeTraceSchema:
    def test_document_is_json_serializable(self, trace_doc):
        json.dumps(trace_doc)

    def test_events_are_well_formed(self, trace_doc):
        events = trace_doc["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] in ("X", "M")  # complete or metadata only
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            if event["ph"] == "X":
                # Complete events need ts+dur; no B/E to leave unmatched.
                assert event["ts"] >= 0
                assert event["dur"] >= 0
                assert isinstance(event["name"], str) and event["name"]
                assert isinstance(event["args"], dict)

    def test_one_process_per_host_plus_driver(self, trace_doc):
        names = {
            e["pid"]: e["args"]["name"]
            for e in trace_doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names[0] == "driver"
        for h in range(NUM_HOSTS):
            assert names[h + 1] == f"host {h}"
        assert len(names) == NUM_HOSTS + 1

    def test_every_round_and_phase_has_spans(self, traced_run, trace_doc):
        result, _ = traced_run
        events = [e for e in trace_doc["traceEvents"] if e["ph"] == "X"]
        round_events = [e for e in events if e["name"] == "round"]
        # One round span per host per executed round.
        assert len(round_events) == result.num_rounds * NUM_HOSTS
        rounds_seen = {e["args"]["round"] for e in round_events}
        assert rounds_seen == set(range(1, result.num_rounds + 1))
        phase_events = [e for e in events if e["cat"] == "sync-phase"]
        phase_rounds = {e["args"]["round"] for e in phase_events}
        assert phase_rounds == rounds_seen
        # Per-field spans survive aggregation (sub-message byte
        # attribution); the frames' header bytes get their own spans.
        assert {e["name"] for e in phase_events} == {
            "reduce:dist", "broadcast:dist",
            "framing:reduce", "framing:broadcast",
        }

    def test_staged_sub_messages_stay_off_the_timeline(self, traced_run, trace_doc):
        """A phase span's ``staged`` list feeds the derived aggregation
        ablation; the exported file carries its count only."""
        _, obs = traced_run
        assert all("staged" in s.tags for s in obs.tracer.spans_named("reduce:dist"))
        phases = [e for e in trace_doc["traceEvents"] if e.get("cat") == "sync-phase"]
        assert all("staged" not in e["args"] for e in phases)
        assert any(e["args"].get("messages") for e in phases)

    def test_spans_tagged_with_run_identity(self, trace_doc):
        round_events = [
            e for e in trace_doc["traceEvents"] if e["name"] == "round"
        ]
        for event in round_events:
            assert event["args"]["app"] == "bfs"
            assert event["args"]["policy"] == "cvc"

    def test_phase_spans_nest_inside_sync_window(self, traced_run):
        _, obs = traced_run
        tracer = obs.tracer
        for sync in tracer.spans_named("sync"):
            phases = [
                s
                for s in tracer.spans_for_host(sync.host)
                if s.cat == "sync-phase"
                and s.tags.get("round") == sync.tags.get("round")
            ]
            assert phases
            for phase in phases:
                assert sync.contains(phase)

    def test_write_reads_back(self, traced_run, tmp_path):
        _, obs = traced_run
        path = tmp_path / "trace.json"
        written = write_chrome_trace(obs.tracer, path)
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(written))
        assert loaded["otherData"]["clock"].startswith("simulated")


class TestTraceSummary:
    @pytest.fixture(scope="class")
    def trace_path(self, traced_run, tmp_path_factory):
        _, obs = traced_run
        path = tmp_path_factory.mktemp("traces") / "trace.json"
        write_chrome_trace(obs.tracer, path)
        return path

    def test_host_rows_cover_all_hosts(self, trace_path):
        rows = host_rows(load_trace(trace_path))
        assert [row["host"] for row in rows] == [
            f"host {h}" for h in range(NUM_HOSTS)
        ]
        for row in rows:
            assert 0.0 <= row["busy_pct"] <= 100.0

    def test_phase_bytes_match_run_volume(self, traced_run, trace_path):
        result, _ = traced_run
        rows = phase_byte_rows(load_trace(trace_path))
        total = sum(row["KB"] * 1e3 for row in rows)
        assert round(total) == result.communication_volume

    def test_top_spans_ranked_by_total(self, trace_path):
        rows = top_span_rows(load_trace(trace_path), limit=5)
        assert len(rows) == 5
        totals = [row["total_ms"] for row in rows]
        assert totals == sorted(totals, reverse=True)

    def test_summarize_trace_bundle(self, trace_path):
        summary = summarize_trace(trace_path)
        assert set(summary) == {"hosts", "phases", "top_spans"}

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(TraceFileError, match="no trace file"):
            load_trace(tmp_path / "nope.json")

    def test_non_trace_json_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "a trace"}')
        with pytest.raises(TraceFileError, match="traceEvents"):
            load_trace(bad)


class TestOtherExporters:
    def test_metrics_dump_picks_format_by_suffix(self, traced_run, tmp_path):
        _, obs = traced_run
        json_path = tmp_path / "m.json"
        csv_path = tmp_path / "m.csv"
        write_metrics(obs.metrics, json_path)
        write_metrics(obs.metrics, csv_path)
        assert "counters" in json.loads(json_path.read_text())
        assert csv_path.read_text().startswith("kind,name,labels,stat,value")

    def test_round_table_lists_every_round(self, traced_run):
        result, _ = traced_run
        table = round_table(result)
        lines = table.strip().splitlines()
        # title + header + separator + one line per round
        assert len(lines) == 3 + result.num_rounds

    def test_round_table_limit_truncates(self, traced_run):
        result, _ = traced_run
        table = round_table(result, limit=1)
        assert f"({result.num_rounds - 1} more rounds)" in table
