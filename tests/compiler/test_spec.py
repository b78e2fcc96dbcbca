"""Unit tests for the program-specification language."""

import numpy as np
import pytest

from repro.compiler.spec import (
    CompileError,
    FieldDecl,
    PhaseSpec,
    ProgramSpec,
    SyncDecl,
)

ZEROS = "np.zeros(n, dtype=np.uint32)"


def push_program(reduce):
    return ProgramSpec(
        name="fixture",
        fields=(FieldDecl("x", np.uint32, reduce=reduce, init=ZEROS),),
        phases=(PhaseSpec("p", "frontier_push", "x", kernel="{src.x}"),),
        sync=(SyncDecl("x"),),
    )


class TestFieldDecl:
    def test_valid(self):
        decl = FieldDecl("dist", np.uint32, reduce="min", init=ZEROS)
        assert decl.reduction.name == "min"

    def test_unknown_reduction(self):
        with pytest.raises(CompileError, match="unknown reduction"):
            FieldDecl("x", np.uint32, reduce="xor", init=ZEROS)

    def test_non_expression_init(self):
        with pytest.raises(CompileError, match="source expression"):
            FieldDecl("x", np.uint32, reduce="min", init=0)


class TestProgramSpec:
    def test_idempotent_frontier_program_iterates_locally(self):
        assert push_program("min").iterate_locally

    def test_add_reduction_forces_single_step(self):
        """The compiler must refuse to chaotically iterate a non-idempotent
        operator (double counting)."""
        assert not push_program("add").iterate_locally

    def test_sync_field_needs_a_reduction(self):
        with pytest.raises(CompileError, match="declares no reduction"):
            push_program(None)

    def test_kernel_required(self):
        with pytest.raises(CompileError, match="kernel is required"):
            PhaseSpec("p", "frontier_push", "x")

    def test_undeclared_kernel_field(self):
        with pytest.raises(CompileError, match="undeclared fields"):
            ProgramSpec(
                name="fixture",
                fields=(FieldDecl("x", np.uint32, "min", ZEROS),),
                phases=(
                    PhaseSpec("p", "frontier_push", "x", kernel="{src.y}"),
                ),
                sync=(SyncDecl("x"),),
            )
