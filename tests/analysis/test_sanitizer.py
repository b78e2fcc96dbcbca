"""Proxy-access sanitizer: transparent on clean runs, loud on broken ones."""

import dataclasses
import importlib.util
import inspect
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.apps.base import AppContext
from repro.apps.specs import FEATPROP_SPEC, PROGRAM_SPECS
from repro.compiler import compile_program, program_codegen
from repro.engines import make_engine
from repro.graph.generators import rmat
from repro.partition import make_partitioner
from repro.runtime.executor import DistributedExecutor
from repro.systems import prepare_input, run_app
from repro.utils.rng import make_rng

from tests.analysis.broken_programs import (
    WrongReadEndpoint,
    WrongWriteEndpoint,
)

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "custom_algorithm.py"

RESULT_KEYS = {
    "bfs": "dist", "cc": "label", "pr-push": "rank", "featprop": "feat",
}


@pytest.fixture(scope="module")
def sanitizer_rmat():
    return rmat(scale=7, edge_factor=8, seed=3)


def _run_program(
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

    @pytest.mark.parametrize(
        "ratio", [None, 0, 2**40], ids=["registry", "sparse", "dense"]
    )
    @pytest.mark.parametrize("policy", ["oec", "cvc", "iec", "hvc"])
    @pytest.mark.parametrize(
        "app_name", ["bfs", "cc", "sssp", "kcore", "pr-push"]
    )
    def test_index_form_kernels_are_clean(
        self, sanitizer_rmat, app_name, policy, ratio
    ):
        """The generated push kernels read the guard through the
        frontier's indices, write post lines through them, and snapshot
        the slots a sparse scatter writes: no endpoint access among them.

        The compiler declares those lines; rendering the sparse-scatter
        cut-off as 0 (every scatter snapshots) or 2**40 (every scatter
        diffs the whole array) exercises each branch's lines.
        """
        if ratio is None:
            result = run_app(
                "d-galois", app_name, sanitizer_rmat, 3, policy=policy,
                sanitize=True,
            )
        else:
            with mock.patch.object(
                program_codegen, "SPARSE_SCATTER_RATIO", ratio
            ):
                program = compile_program(PROGRAM_SPECS[app_name])
            _, result = _run_program(
                sanitizer_rmat, program, policy=policy, app=app_name
            )
        assert result.sanitizer_findings == []

    @pytest.mark.parametrize("policy", ["oec", "cvc", "iec"])
    def test_handwritten_mask_form_is_clean(self, policy):
        """A handwritten program gets no exempt lines: the example's
        push step holds its frontier as a mask, which is never audited."""
        loader = importlib.util.spec_from_file_location("custom_algorithm", EXAMPLE)
        example = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(example)
        widest_path = example.WidestPath
        assert not hasattr(widest_path, "spec")
        edges = rmat(scale=9, edge_factor=8, seed=9).with_random_weights(
            make_rng(5), low=1, high=50
        )
        ctx = AppContext(
            num_global_nodes=edges.num_nodes,
            source=prepare_input("bfs", edges).ctx.source,
        )
        runs = []
        for sanitize in (False, True):
            executor = DistributedExecutor(
                make_partitioner(policy).partition(edges, 4),
                make_engine("galois"),
                widest_path(),
                ctx,
                sanitize=sanitize,
            )
            result = executor.run()
            runs.append((result, executor.gather_result("capacity")))
        (_, plain), (guarded, capacity) = runs
        assert guarded.sanitizer_findings == []
        assert capacity.tobytes() == plain.tobytes()

    def test_guards_are_removed_after_each_round(self, sanitizer_rmat):
        executor, _ = _run_program(
            sanitizer_rmat, WrongWriteEndpoint(), sanitize=True
        )
        for state in executor.states:
            assert type(state["dist"]) is np.ndarray


class TestViolations:
    def test_lost_update_fires_gl201(self, sanitizer_rmat):
        _, result = _run_program(sanitizer_rmat, WrongWriteEndpoint())
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
        _, result = _run_program(sanitizer_rmat, WrongReadEndpoint())
        rules = {f["rule"] for f in result.sanitizer_findings}
        assert "GL202" in rules
        finding = next(
            f for f in result.sanitizer_findings if f["rule"] == "GL202"
        )
        # Reads are only audited once a sync has completed: round 1's
        # pre-broadcast reads are legitimately unchecked.
        assert finding["details"]["first_round"] >= 2

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
        _, result = _run_program(
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
        statement is the step's kernel call: declaring that one line
        exempt on the class silences the rule.
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
        _, result = _run_program(
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
        with mock.patch.object(
            type(program), "non_endpoint_lines",
            frozenset({(gl202[0]["file"], call)}),
        ):
            _, exempted = _run_program(
                sanitizer_rmat, program, policy="iec", app="featprop"
            )
        assert exempted.sanitizer_findings == []

    def test_unsanitized_broken_run_stays_silent(self, sanitizer_rmat):
        _, result = _run_program(
            sanitizer_rmat, WrongWriteEndpoint(), sanitize=False
        )
        assert result.sanitizer_findings == []

    def test_findings_reach_json_payload(self, sanitizer_rmat):
        import json

        _, result = _run_program(sanitizer_rmat, WrongWriteEndpoint())
        payload = json.loads(result.to_json())
        assert payload["sanitizer_findings"][0]["rule"] == "GL201"
