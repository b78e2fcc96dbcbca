"""Proxy-access sanitizer: transparent on clean runs, loud on broken ones."""

import dataclasses
import inspect
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from repro.analysis import sanitizer as sanitizer_module
from repro.apps.specs import FEATPROP_SPEC
from repro.compiler import compile_program
from repro.engines import make_engine
from repro.graph.generators import rmat
from repro.partition import make_partitioner
from repro.runtime.executor import DistributedExecutor
from repro.systems import prepare_input, run_app

from tests.analysis.broken_programs import (
    StaleCandidateRead,
    WrongReadEndpoint,
    WrongWriteEndpoint,
)

RESULT_KEYS = {
    "bfs": "dist", "cc": "label", "pr-push": "rank", "featprop": "feat",
}


@pytest.fixture(scope="module")
def sanitizer_rmat():
    return rmat(scale=7, edge_factor=8, seed=3)


def _run_broken(
    edges, program, policy="oec", num_hosts=3, sanitize=True, app="bfs"
):
    prep = prepare_input(app, edges)
    partitioned = make_partitioner(policy).partition(prep.edges, num_hosts)
    executor = DistributedExecutor(
        partitioned,
        make_engine("galois"),
        program,
        prep.ctx,
        system_name="d-galois",
        sanitize=sanitize,
    )
    result = executor.run(max_rounds=100)
    return executor, result


class TestTransparency:
    @pytest.mark.parametrize("app_name", sorted(RESULT_KEYS))
    def test_bitwise_identical_and_clean(self, sanitizer_rmat, app_name):
        plain = run_app("d-galois", app_name, sanitizer_rmat, 3)
        guarded = run_app(
            "d-galois", app_name, sanitizer_rmat, 3, sanitize=True
        )
        assert guarded.sanitizer_findings == []
        key = RESULT_KEYS[app_name]
        assert np.array_equal(
            plain.executor.gather_result(key),
            guarded.executor.gather_result(key),
        )
        assert guarded.num_rounds == plain.num_rounds
        assert guarded.communication_volume == plain.communication_volume

    def test_bc_two_phase_clean(self, sanitizer_rmat):
        plain = run_app("d-galois", "bc", sanitizer_rmat, 3)
        guarded = run_app("d-galois", "bc", sanitizer_rmat, 3, sanitize=True)
        assert guarded.sanitizer_findings == []
        assert np.array_equal(
            plain.executor.gather_result("delta"),
            guarded.executor.gather_result("delta"),
        )

    @pytest.mark.parametrize("policy", ["oec", "cvc", "iec", "hvc"])
    @pytest.mark.parametrize(
        "app_name", ["bfs", "cc", "sssp", "kcore", "pr-push"]
    )
    def test_index_form_kernels_are_clean(
        self, sanitizer_rmat, app_name, policy
    ):
        """The generated push kernels read the guard through the
        frontier's indices, write post lines through them, and snapshot
        the slots a sparse scatter writes: no endpoint access among them."""
        result = run_app(
            "d-galois", app_name, sanitizer_rmat, 3, policy=policy,
            sanitize=True,
        )
        assert result.sanitizer_findings == []

    def test_guards_are_removed_after_each_round(self, sanitizer_rmat):
        executor, _ = _run_broken(
            sanitizer_rmat, WrongWriteEndpoint(), sanitize=True
        )
        for state in executor.states:
            assert type(state["dist"]) is np.ndarray


class TestViolations:
    def test_lost_update_fires_gl201(self, sanitizer_rmat):
        _, result = _run_broken(sanitizer_rmat, WrongWriteEndpoint())
        rules = {f["rule"] for f in result.sanitizer_findings}
        assert rules == {"GL201"}
        finding = result.sanitizer_findings[0]
        assert finding["severity"] == "error"
        assert finding["field"] == "dist"
        assert finding["subject"] == "WrongWriteEndpoint"
        assert finding["details"]["count"] > 0
        assert finding["details"]["sample_global_ids"]
        assert finding["file"].endswith("broken_programs.py")

    def test_stale_read_fires_gl202(self, sanitizer_rmat):
        _, result = _run_broken(sanitizer_rmat, WrongReadEndpoint())
        rules = {f["rule"] for f in result.sanitizer_findings}
        assert "GL202" in rules
        finding = next(
            f for f in result.sanitizer_findings if f["rule"] == "GL202"
        )
        # Reads are only audited once a sync has completed: round 1's
        # pre-broadcast reads are legitimately unchecked.
        assert finding["details"]["first_round"] >= 2

    def test_index_form_stale_read_fires_gl202(self, sanitizer_rmat):
        """The frontier-index and scatter-snapshot exemptions leave the
        candidate's genuine ``dist[dst]`` read audited."""
        _, result = _run_broken(sanitizer_rmat, StaleCandidateRead())
        assert {f["rule"] for f in result.sanitizer_findings} == {"GL202"}

    def test_wide_kernel_lost_update_fires_gl201(self, sanitizer_rmat):
        """The column-wise feature kernel stays visible to the guard.

        featprop writes ``acc`` rows at edge destinations; declaring
        ``writes={"source"}`` makes every oec mirror (destinations only)
        non-writable, so the kernel's scatter must still be audited.
        """
        tampered = dataclasses.replace(
            FEATPROP_SPEC,
            name="featprop-wrong-write",
            endpoint_overrides=(
                ("feat_acc", (frozenset({"source"}), frozenset({"source"}))),
            ),
        )
        _, result = _run_broken(
            sanitizer_rmat, compile_program(tampered), app="featprop"
        )
        gl201 = [
            f for f in result.sanitizer_findings if f["rule"] == "GL201"
        ]
        assert gl201 and gl201[0]["field"] == "feat_acc"
        assert gl201[0]["details"]["count"] > 0

    def test_wide_kernel_stale_read_fires_gl202(self, sanitizer_rmat):
        """The read-side twin: the kernel gathers ``feat`` rows at edge
        sources, and iec mirrors are sources only, so declaring
        ``reads={"destination"}`` leaves every one of them stale.

        The finding is anchored in the generated module, and the audited
        statement is the step's kernel call: exempting that one line
        silences the rule.
        """
        tampered = dataclasses.replace(
            FEATPROP_SPEC,
            name="featprop-wrong-read",
            endpoint_overrides=(
                ("feat_acc", (
                    frozenset({"destination"}), frozenset({"destination"}),
                )),
            ),
        )
        program = compile_program(tampered)
        _, result = _run_broken(
            sanitizer_rmat, program, policy="iec", app="featprop"
        )
        gl202 = [
            f for f in result.sanitizer_findings if f["rule"] == "GL202"
        ]
        assert gl202 and gl202[0]["field"] == "feat_acc"
        assert gl202[0]["details"]["count"] > 0
        assert gl202[0]["file"].startswith("<compiled:featprop-wrong-read")

        step = type(program)._step_pull
        lines, first = inspect.getsourcelines(step)
        call = next(
            first + i for i, line in enumerate(lines)
            if "aggregate_neighbor_rows(" in line
        )
        exempt = SimpleNamespace(
            non_endpoint_lines={(gl202[0]["file"], call)}
        )
        with mock.patch.object(
            sanitizer_module, "analyze_program", return_value=exempt
        ):
            _, exempted = _run_broken(
                sanitizer_rmat, program, policy="iec", app="featprop"
            )
        assert exempted.sanitizer_findings == []

    def test_unsanitized_broken_run_stays_silent(self, sanitizer_rmat):
        _, result = _run_broken(
            sanitizer_rmat, WrongWriteEndpoint(), sanitize=False
        )
        assert result.sanitizer_findings == []

    def test_findings_reach_json_payload(self, sanitizer_rmat):
        import json

        _, result = _run_broken(sanitizer_rmat, WrongWriteEndpoint())
        payload = json.loads(result.to_json())
        assert payload["sanitizer_findings"][0]["rule"] == "GL201"
