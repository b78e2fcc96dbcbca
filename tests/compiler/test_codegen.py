"""Tests for compiled vertex programs: code generated from a user-written
``ProgramSpec`` must match the oracles across engines and policies."""

import numpy as np
import pytest

from repro.apps import make_app
from repro.compiler import (
    FieldDecl,
    PhaseSpec,
    ProgramSpec,
    SyncDecl,
    compile_program,
    describe_program,
    required_patterns,
)
from repro.compiler.spec import CompileError
from repro.engines import make_engine
from repro.partition import make_partitioner
from repro.partition.strategy import PartitionStrategy
from repro.runtime.executor import DistributedExecutor
from repro.systems import prepare_input
from tests.conftest import reference_bfs, reference_cc, reference_sssp

INFINITY = np.uint32(np.iinfo(np.uint32).max)

DIST = FieldDecl(
    "dist", np.uint32, reduce="min",
    init="np.full(n, INFINITY, dtype=np.uint32)", source_value="0",
)
LABEL = FieldDecl(
    "label", np.uint32, reduce="min",
    init="part.local_to_global.astype(np.uint32).copy()",
)


def _saturating(step):
    return (
        f"np.minimum({{src.dist}}.astype(np.int64) + {step}, "
        "int(INFINITY)).astype(np.uint32)"
    )


def sssp_spec():
    return ProgramSpec(
        name="sssp-fixture",
        fields=(DIST,),
        phases=(
            PhaseSpec(
                "relax", "frontier_push", "dist", kernel=_saturating("{w}"),
                guard="{dist} != INFINITY", uses_weights=True,
            ),
        ),
        sync=(SyncDecl("dist"),),
        constants=(("INFINITY", INFINITY),),
        frontier="source",
        needs_weights=True,
    )


def bfs_spec(select="{dist} == INFINITY"):
    return ProgramSpec(
        name="bfs-fixture",
        fields=(DIST,),
        phases=(
            PhaseSpec(
                "relax", "frontier_push", "dist", kernel=_saturating("1"),
                guard="{dist} != INFINITY",
            ),
            PhaseSpec(
                "adopt", "sparse_pull", "dist", kernel=_saturating("1"),
                guard="{dist} != INFINITY", select=select,
            ),
        ),
        sync=(SyncDecl("dist"),),
        constants=(("INFINITY", INFINITY),),
        frontier="source",
    )


def cc_spec():
    return ProgramSpec(
        name="cc-fixture",
        fields=(LABEL,),
        phases=(
            PhaseSpec("propagate", "frontier_push", "label",
                      kernel="{src.label}"),
            PhaseSpec("adopt", "sparse_pull", "label", kernel="{src.label}"),
        ),
        sync=(SyncDecl("label"),),
        symmetrize_input=True,
    )


def run_compiled(spec, edges, app_for_prep, num_hosts, policy, engine="galois"):
    prep = prepare_input(app_for_prep, edges)
    program = compile_program(spec)
    partitioned = make_partitioner(policy).partition(prep.edges, num_hosts)
    executor = DistributedExecutor(
        partitioned, make_engine(engine), program, prep.ctx
    )
    executor.run()
    return prep, executor


def one_host(spec, edges, app_for_prep):
    prep = prepare_input(app_for_prep, edges)
    program = compile_program(spec)
    part = make_partitioner("oec").partition(prep.edges, 1).partitions[0]
    state = program.make_state(part, prep.ctx)
    frontier = program.initial_frontier(part, state, prep.ctx)
    return prep, program, part, state, frontier


class TestCompiledCorrectness:
    @pytest.mark.parametrize("policy", ["oec", "iec", "cvc", "hvc"])
    def test_compiled_sssp_matches_oracle(self, small_rmat, policy):
        prep, executor = run_compiled(
            sssp_spec(), small_rmat, "sssp", 4, policy
        )
        got = executor.gather_result("dist").astype(np.uint64)
        expected = reference_sssp(prep.edges, prep.ctx.source)
        assert np.array_equal(got, expected)

    def test_compiled_bfs_matches_oracle(self, small_rmat):
        prep, executor = run_compiled(bfs_spec(), small_rmat, "bfs", 4, "cvc")
        got = executor.gather_result("dist").astype(np.uint64)
        expected = reference_bfs(prep.edges, prep.ctx.source)
        assert np.array_equal(got, expected)

    def test_compiled_cc_matches_oracle(self, small_rmat):
        prep, executor = run_compiled(cc_spec(), small_rmat, "cc", 4, "hvc")
        got = executor.gather_result("label").astype(np.uint64)
        expected = reference_cc(prep.edges)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("engine", ["galois", "ligra", "irgl"])
    def test_compiled_runs_on_every_engine(self, small_rmat, engine):
        prep, executor = run_compiled(
            bfs_spec(), small_rmat, "bfs", 4, "cvc", engine=engine
        )
        got = executor.gather_result("dist").astype(np.uint64)
        expected = reference_bfs(prep.edges, prep.ctx.source)
        assert np.array_equal(got, expected)

    def test_user_spec_matches_builtin_traffic(self, small_rmat):
        """Same operator, same dirty sets -> byte-identical communication
        as the built-in sssp."""
        prep = prepare_input("sssp", small_rmat)
        partitioned = make_partitioner("cvc").partition(prep.edges, 4)
        compiled = DistributedExecutor(
            partitioned,
            make_engine("ligra"),
            compile_program(sssp_spec()),
            prep.ctx,
        )
        builtin = DistributedExecutor(
            partitioned, make_engine("ligra"), make_app("sssp"), prep.ctx
        )
        a = compiled.run()
        b = builtin.run()
        assert a.num_rounds == b.num_rounds
        assert a.communication_volume == b.communication_volume


class TestCompiledPull:
    def test_pull_style_min_propagation(self, small_rmat):
        """The sparse-pull template alone: nodes adopt the min in-neighbor
        label until nothing moves."""
        prep, program, part, state, frontier = one_host(
            cc_spec(), small_rmat, "cc"
        )
        while frontier.any():
            frontier = program.step(
                part, state, frontier, direction="pull"
            ).updated
        got = state["label"].astype(np.uint64)
        assert np.array_equal(got, reference_cc(prep.edges))

    def _second_pull(self, small_rmat, select):
        _, program, part, state, frontier = one_host(
            bfs_spec(select), small_rmat, "bfs"
        )
        # The first pull settles level 1; the second is where the
        # target restriction pays (most nodes are still unreached).
        program.step(part, state, frontier, direction="pull")
        frontier = state["dist"] != INFINITY
        return program.step(part, state, frontier, direction="pull")

    def test_pull_targets_shrink_the_gather(self, small_rmat):
        restricted = self._second_pull(small_rmat, "{dist} == INFINITY")
        unrestricted = self._second_pull(small_rmat, None)
        assert (
            restricted.work.edges_processed
            < unrestricted.work.edges_processed
        )
        assert (
            restricted.work.nodes_processed
            < unrestricted.work.nodes_processed
        )
        # Same frontier, same values: the restriction must not change
        # which nodes improve.
        assert np.array_equal(restricted.updated, unrestricted.updated)


class TestCompilerValidation:
    def test_assign_reduction_rejected(self):
        spec = ProgramSpec(
            name="bad",
            fields=(
                FieldDecl("x", np.uint32, reduce="assign",
                          init="np.zeros(n, dtype=np.uint32)"),
            ),
            phases=(
                PhaseSpec("p", "frontier_push", "x", kernel="{src.x}"),
            ),
            sync=(SyncDecl("x"),),
        )
        with pytest.raises(CompileError, match="scatter-combine"):
            compile_program(spec)

    def test_unreduced_scatter_target_rejected(self):
        """A phase may only scatter into a field that names a reduction."""
        spec = ProgramSpec(
            name="bad",
            fields=(
                FieldDecl("x", np.uint32, reduce="min",
                          init="np.zeros(n, dtype=np.uint32)"),
                FieldDecl("y", np.uint32, reduce=None,
                          init="np.zeros(n, dtype=np.uint32)"),
            ),
            phases=(
                PhaseSpec("p", "frontier_push", "x", kernel="{src.x}"),
                PhaseSpec("q", "frontier_push", "y", kernel="{src.x}"),
            ),
            sync=(SyncDecl("x"),),
        )
        with pytest.raises(CompileError, match="declares no reduction"):
            compile_program(spec)


class TestAnalysis:
    def test_required_patterns_match_section32(self):
        assert required_patterns(PartitionStrategy.OEC) == (True, False)
        assert required_patterns(PartitionStrategy.IEC) == (False, True)
        for strategy in (PartitionStrategy.UVC, PartitionStrategy.CVC):
            assert required_patterns(strategy) == (True, True)

    def test_describe_program_renders(self):
        text = describe_program(sssp_spec())
        assert "sssp-fixture" in text
        assert "reduce" in text and "broadcast" in text
