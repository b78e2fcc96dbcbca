"""The Gluon sync compiler (§3.3).

The paper's applications do not write communication code: a compiler
statically analyzes the operator — which fields it reads and writes, in
which direction data flows, what reduction combines concurrent writes —
and generates the synchronization structures plus the sync call placement
("we have implemented this in a compiler for Galois").

This subpackage is the Python rendering of that compiler.  An application
is written as a *declarative program specification*
(:class:`~repro.compiler.spec.ProgramSpec`): field declarations, ordered
compute phases with textual vectorized kernels, and sync pairings.
:func:`compile_program` renders real Python source from templates — a
complete :class:`~repro.apps.base.VertexProgram` with state allocation,
the local super-step and the Gluon field specs — whose sync endpoints
are *derived* from the phases' declared access sets
(:func:`derive_endpoints`), and the GL001–GL011 lint rules check the
endpoints it emitted against that derivation (``repro lint``).

Example (sssp; :data:`repro.apps.specs.SSSP_SPEC` adds only the
unreached-source guard)::

    spec = ProgramSpec(
        name="sssp",
        fields=(FieldDecl("dist", np.uint32, reduce="min",
                          init="np.full(n, INFINITY, dtype=np.uint32)",
                          source_value="0"),),
        phases=(PhaseSpec("relax", kind="frontier_push", target="dist",
                          kernel="np.minimum({src.dist}.astype(np.int64)"
                                 " + {w}, int(INFINITY)).astype(np.uint32)",
                          uses_weights=True),),
        sync=(SyncDecl(field="dist"),),
        constants=(("INFINITY", np.uint32(2**32 - 1)),),
        frontier="source",
        needs_weights=True,
    )
    sssp = compile_program(spec)   # a ready-to-run VertexProgram

Every built-in app is such a spec (bc a staged one); the programs
``make_app`` hands out are the classes generated from them.
"""

from repro.compiler.analysis import describe_program, required_patterns
from repro.compiler.program_codegen import (
    compile_program,
    render_program,
    verify_compiled,
)
from repro.compiler.spec import (
    FieldDecl,
    PhaseSpec,
    ProgramSpec,
    StageSpec,
    SyncDecl,
    derive_endpoints,
    derive_phase_access,
)

__all__ = [
    "FieldDecl",
    "required_patterns",
    "ProgramSpec",
    "PhaseSpec",
    "StageSpec",
    "SyncDecl",
    "derive_endpoints",
    "derive_phase_access",
    "compile_program",
    "render_program",
    "verify_compiled",
    "describe_program",
]
